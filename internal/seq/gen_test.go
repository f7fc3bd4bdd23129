package seq

import (
	"math/rand"
	"testing"
)

// alphaRef computes alpha(m) by the paper's recurrence, independently of
// the alpha package (which depends on seq and so cannot be imported here).
func alphaRef(m int) int {
	a := 1
	for k := 1; k <= m; k++ {
		a = k*a + 1
	}
	return a
}

func TestRepetitionFreeCountsMatchAlpha(t *testing.T) {
	t.Parallel()
	for m := 0; m <= 6; m++ {
		got := len(RepetitionFree(m))
		if want := alphaRef(m); got != want {
			t.Errorf("len(RepetitionFree(%d)) = %d, want alpha(%d) = %d", m, got, m, want)
		}
	}
}

func TestRepetitionFreeContents(t *testing.T) {
	t.Parallel()
	for m := 0; m <= 5; m++ {
		seen := map[string]struct{}{}
		for _, s := range RepetitionFree(m) {
			if s.HasRepetition() {
				t.Fatalf("m=%d: generated sequence %s has a repetition", m, s)
			}
			for _, x := range s {
				if int(x) < 0 || int(x) >= m {
					t.Fatalf("m=%d: item %d out of domain", m, int(x))
				}
			}
			if _, dup := seen[s.Key()]; dup {
				t.Fatalf("m=%d: duplicate sequence %s", m, s)
			}
			seen[s.Key()] = struct{}{}
		}
	}
}

func TestRepetitionFreeDFSOrder(t *testing.T) {
	t.Parallel()
	got := RepetitionFree(2)
	want := []string{"ε", "0", "0.1", "1", "1.0"}
	if len(got) != len(want) {
		t.Fatalf("got %d sequences, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key() != want[i] {
			t.Errorf("RepetitionFree(2)[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestRepetitionFreeSet(t *testing.T) {
	t.Parallel()
	// RepetitionFree yields no duplicate: the paper's tight X is a set of
	// alpha(m) sequences.
	s, err := NewSet(RepetitionFree(3)...)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != alphaRef(3) {
		t.Errorf("Size() = %d, want %d", s.Size(), alphaRef(3))
	}
}

func TestRandom(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	s := Random(rng, 3, 10)
	if len(s) != 10 {
		t.Fatalf("len = %d, want 10", len(s))
	}
	for _, x := range s {
		if int(x) < 0 || int(x) >= 3 {
			t.Errorf("item %d out of domain [0,3)", int(x))
		}
	}
}

func TestRandomRepetitionFree(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		s, err := RandomRepetitionFree(rng, 5, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(s) != 4 || s.HasRepetition() {
			t.Fatalf("bad sequence %s", s)
		}
	}
	if _, err := RandomRepetitionFree(rng, 2, 3); err == nil {
		t.Error("length > m succeeded, want error")
	}
}

func TestFromInts(t *testing.T) {
	t.Parallel()
	s := FromInts(3, 1)
	if len(s) != 2 || s[0] != 3 || s[1] != 1 {
		t.Errorf("FromInts(3,1) = %v", s)
	}
}
