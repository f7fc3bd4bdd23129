package seq

import (
	"fmt"
	"math/rand"
)

// RepetitionFree enumerates every repetition-free sequence (including the
// empty one) over a domain of size m, in arrangement-tree depth-first
// order: a node's children append each unused item in increasing order.
// The count of returned sequences is alpha(m) (paper §1, §3).
func RepetitionFree(m int) []Seq {
	var out []Seq
	used := make([]bool, m)
	var rec func(cur Seq)
	rec = func(cur Seq) {
		out = append(out, cur.Clone())
		for i := 0; i < m; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			rec(append(cur, Item(i)))
			used[i] = false
		}
	}
	rec(Seq{})
	return out
}

// Random returns a uniformly random sequence of the given length over a
// domain of size m, using rng.
func Random(rng *rand.Rand, m, length int) Seq {
	x := make(Seq, length)
	for i := range x {
		x[i] = Item(rng.Intn(m))
	}
	return x
}

// RandomRepetitionFree returns a random repetition-free sequence of the
// given length over a domain of size m. It returns an error if length > m.
func RandomRepetitionFree(rng *rand.Rand, m, length int) (Seq, error) {
	if length > m {
		return nil, fmt.Errorf("seq: repetition-free length %d exceeds domain size %d", length, m)
	}
	perm := rng.Perm(m)
	x := make(Seq, length)
	for i := range x {
		x[i] = Item(perm[i])
	}
	return x, nil
}

// FromInts converts raw ints to a Seq. Convenience for tests and examples.
func FromInts(vals ...int) Seq {
	x := make(Seq, len(vals))
	for i, v := range vals {
		x[i] = Item(v)
	}
	return x
}
