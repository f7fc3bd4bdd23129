package seq

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSeqCloneIndependence(t *testing.T) {
	t.Parallel()
	s := FromInts(1, 2, 3)
	c := s.Clone()
	c[0] = 9
	if s[0] != 1 {
		t.Error("Clone shares backing array with original")
	}
	if (Seq)(nil).Clone() != nil {
		t.Error("Clone(nil) != nil")
	}
}

func TestIsPrefixOf(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		s, t Seq
		want bool
	}{
		{"empty of empty", Seq{}, Seq{}, true},
		{"empty of any", Seq{}, FromInts(1, 2), true},
		{"proper prefix", FromInts(1), FromInts(1, 2), true},
		{"equal", FromInts(1, 2), FromInts(1, 2), true},
		{"longer", FromInts(1, 2, 3), FromInts(1, 2), false},
		{"mismatch", FromInts(1, 3), FromInts(1, 2, 3), false},
		{"nil of nil", nil, nil, true},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			if got := tt.s.IsPrefixOf(tt.t); got != tt.want {
				t.Errorf("(%v).IsPrefixOf(%v) = %v, want %v", tt.s, tt.t, got, tt.want)
			}
		})
	}
}

func TestHasRepetition(t *testing.T) {
	t.Parallel()
	if FromInts(1, 2, 3).HasRepetition() {
		t.Error("1.2.3 reported repetition")
	}
	if !FromInts(1, 2, 1).HasRepetition() {
		t.Error("1.2.1 reported no repetition")
	}
	if (Seq{}).HasRepetition() {
		t.Error("empty sequence reported repetition")
	}
}

func TestStringAndFormat(t *testing.T) {
	t.Parallel()
	if got := (Seq{}).String(); got != "ε" {
		t.Errorf("empty String() = %q, want ε", got)
	}
	if got := FromInts(0, 2).String(); got != "0.2" {
		t.Errorf("String() = %q, want 0.2", got)
	}
}

func TestPaperLength(t *testing.T) {
	t.Parallel()
	if got := (Seq{}).PaperLength(); got != 1 {
		t.Errorf("PaperLength(ε) = %d, want 1", got)
	}
	if got := FromInts(1, 2, 3).PaperLength(); got != 4 {
		t.Errorf("PaperLength(1.2.3) = %d, want 4", got)
	}
}

func TestPrefixTransitivityProperty(t *testing.T) {
	t.Parallel()
	// Property: prefix relation is transitive and antisymmetric on keys.
	rng := rand.New(rand.NewSource(7))
	f := func(a, b, c []uint8) bool {
		s := clip(a, rng)
		u := clip(b, rng)
		v := clip(c, rng)
		if s.IsPrefixOf(u) && u.IsPrefixOf(v) && !s.IsPrefixOf(v) {
			return false
		}
		if s.IsPrefixOf(u) && u.IsPrefixOf(s) && !s.Equal(u) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func clip(raw []uint8, rng *rand.Rand) Seq {
	s := make(Seq, 0, len(raw)%8)
	for i := 0; i < len(raw) && i < 8; i++ {
		s = append(s, Item(raw[i]%4))
	}
	_ = rng
	return s
}

func TestEqualProperty(t *testing.T) {
	t.Parallel()
	f := func(a []uint8) bool {
		s := clip(a, nil)
		return s.Equal(s.Clone()) && s.IsPrefixOf(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
