package alpha

import (
	"errors"
	"math/rand"
	"testing"

	"seqtx/internal/seq"
)

func TestEncodeRepetitionFreeSet(t *testing.T) {
	t.Parallel()
	// The paper's tight X: all repetition-free sequences over m items
	// encode into exactly m messages (identity-like embedding).
	for m := 0; m <= 3; m++ {
		x, err := seq.NewSet(seq.RepetitionFree(m)...)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := Encode(x, m)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if err := enc.Validate(x); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
	}
}

func TestEncodeRejectsOversizedSet(t *testing.T) {
	t.Parallel()
	// alpha(2) = 5; six sequences cannot encode over two messages.
	x := seq.MustNewSet(
		seq.Seq{},
		seq.FromInts(0),
		seq.FromInts(1),
		seq.FromInts(0, 1),
		seq.FromInts(1, 0),
		seq.FromInts(0, 0), // the repeating intruder
	)
	_, err := Encode(x, 2)
	if !errors.Is(err, ErrNotEncodable) {
		t.Fatalf("err = %v, want ErrNotEncodable", err)
	}
}

func TestEncodeChainLimit(t *testing.T) {
	t.Parallel()
	// A chain of k+1 nested sequences needs k letters: 0 < 0.0 < 0.0.0
	// requires m >= 2 when ε is absent, and fails for m = 1 even though
	// |X| = 2 <= alpha(1) = 2 holds for the 2-chain below.
	chain2 := seq.MustNewSet(seq.FromInts(0), seq.FromInts(0, 0))
	if _, err := Encode(chain2, 1); err != nil {
		t.Errorf("2-chain over m=1 should encode: %v", err)
	}
	chain3 := seq.MustNewSet(seq.FromInts(0), seq.FromInts(0, 0), seq.FromInts(0, 0, 0))
	if _, err := Encode(chain3, 2); err != nil {
		t.Errorf("3-chain over m=2 should encode: %v", err)
	}
	if _, err := Encode(chain3, 1); !errors.Is(err, ErrNotEncodable) {
		t.Errorf("3-chain over m=1 encoded, want ErrNotEncodable")
	}
}

func TestEncodeAntichainUpToFactorial(t *testing.T) {
	t.Parallel()
	// The paper: any antichain with |X| <= m! encodes (the m! leaves).
	// m = 3: an antichain of 6 sequences with long repetitive bodies.
	var seqs []seq.Seq
	for i := 0; i < 6; i++ {
		// Pairwise incomparable: distinct first two items encode i.
		s := seq.FromInts(i/3, 2-i%3, 0, 0, 0)
		seqs = append(seqs, s)
	}
	x := seq.MustNewSet(seqs...)
	enc, err := Encode(x, 3)
	if err != nil {
		t.Fatalf("antichain of 6 over m=3: %v", err)
	}
	if err := enc.Validate(x); err != nil {
		t.Fatal(err)
	}
	// An antichain of m!+1 = 7 incomparable sequences cannot encode.
	extra := append(append([]seq.Seq{}, seqs...), seq.FromInts(9, 9))
	x7 := seq.MustNewSet(extra...)
	if _, err := Encode(x7, 3); !errors.Is(err, ErrNotEncodable) {
		t.Errorf("antichain of 7 over m=3 encoded, want ErrNotEncodable")
	}
}

func TestEncodeEmptySequenceMember(t *testing.T) {
	t.Parallel()
	x := seq.MustNewSet(seq.Seq{}, seq.FromInts(7), seq.FromInts(7, 7))
	enc, err := Encode(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := enc.Code(seq.Seq{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 0 {
		t.Errorf("code of ε = %v, want empty", c)
	}
}

func TestEncodeCodeUnknownSequence(t *testing.T) {
	t.Parallel()
	x := seq.MustNewSet(seq.FromInts(1))
	enc, err := Encode(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Code(seq.FromInts(2)); err == nil {
		t.Error("Code of non-member succeeded")
	}
}

func TestEncodeMixedStructure(t *testing.T) {
	t.Parallel()
	// Mixed chains and antichains exercising group sharing: requires
	// splitting trees across shared first letters.
	x := seq.MustNewSet(
		seq.FromInts(0),
		seq.FromInts(0, 0),
		seq.FromInts(1),
		seq.FromInts(2),
		seq.FromInts(2, 2),
	)
	// |X| = 5 = alpha(2); but two 2-chains plus a singleton over m=2?
	// Chains need 2 letters each and must be incomparable... exact search
	// decides. Over m=3 it must work comfortably.
	if enc, err := Encode(x, 3); err != nil {
		t.Fatalf("m=3: %v", err)
	} else if err := enc.Validate(x); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRandomizedSetsValidate(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		m := 2 + rng.Intn(3) // 2..4
		n := 1 + rng.Intn(6)
		var seqs []seq.Seq
		seen := map[string]struct{}{}
		for len(seqs) < n {
			s := seq.Random(rng, 3, rng.Intn(4))
			if _, dup := seen[s.Key()]; dup {
				continue
			}
			seen[s.Key()] = struct{}{}
			seqs = append(seqs, s)
		}
		x := seq.MustNewSet(seqs...)
		enc, err := Encode(x, m)
		if errors.Is(err, ErrNotEncodable) {
			continue // fine: the search is exact, infeasible sets exist
		}
		if err != nil {
			t.Fatalf("trial %d: unexpected error: %v", trial, err)
		}
		if err := enc.Validate(x); err != nil {
			t.Fatalf("trial %d: invalid encoding: %v", trial, err)
		}
	}
}

func TestEncodeExactness(t *testing.T) {
	t.Parallel()
	// Brute-force cross-check on tiny instances: compare the search's
	// verdict with exhaustive assignment of codes for all subsets of
	// sequences drawn from a small pool, m = 2.
	pool := []seq.Seq{
		{},
		seq.FromInts(0),
		seq.FromInts(1),
		seq.FromInts(0, 0),
		seq.FromInts(0, 1),
	}
	m := 2
	codes := seq.RepetitionFree(m) // 5 candidate codes as item sequences
	for mask := 1; mask < 1<<len(pool); mask++ {
		var members []seq.Seq
		for i, s := range pool {
			if mask&(1<<i) != 0 {
				members = append(members, s)
			}
		}
		x := seq.MustNewSet(members...)
		_, err := Encode(x, m)
		got := err == nil
		want := bruteForceEncodable(members, codes)
		if got != want {
			t.Errorf("mask %b: Encode = %v, brute force = %v", mask, got, want)
		}
	}
}

// bruteForceEncodable tries every injective assignment of codes to members
// and checks prefix monotonicity both ways.
func bruteForceEncodable(members, codes []seq.Seq) bool {
	n := len(members)
	if n > len(codes) {
		return false
	}
	assign := make([]int, n)
	usedCode := make([]bool, len(codes))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					wantP := members[a].IsPrefixOf(members[b])
					gotP := codes[assign[a]].IsPrefixOf(codes[assign[b]])
					if wantP != gotP {
						return false
					}
				}
			}
			return true
		}
		for c := range codes {
			if usedCode[c] {
				continue
			}
			usedCode[c] = true
			assign[i] = c
			if rec(i + 1) {
				return true
			}
			usedCode[c] = false
		}
		return false
	}
	return rec(0)
}
