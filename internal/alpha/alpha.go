// Package alpha implements the combinatorics behind the paper's tight
// bound: the function
//
//	alpha(m) = m! * sum_{k=0..m} 1/k!
//
// which counts the sequences over an m-letter alphabet that contain no
// repetitions (including the empty sequence). Theorems 1 and 2 of the
// paper state that alpha(|M^S|) bounds |X| for X-STP(dup) and for bounded
// X-STP(del), and that the bound is tight.
//
// The package also implements the "arrangement tree" of repetition-free
// strings — ranking, unranking, enumeration — and the prefix-monotone
// encoder mu : X -> repetition-free strings whose existence the paper
// shows is necessary and sufficient for solving X-STP(dup) (§3, end).
package alpha

import (
	"fmt"
	"math/big"

	"seqtx/internal/seq"
)

// MaxExact is the largest m for which Alpha can return an exact uint64.
// alpha(20) ≈ 6.61e18 still fits in a uint64; alpha(21) does not.
const MaxExact = 20

// Alpha returns alpha(m) exactly. It uses the recurrence
//
//	alpha(0) = 1
//	alpha(m) = m*alpha(m-1) + 1
//
// (a repetition-free sequence is either empty or a first letter — m
// choices — followed by a repetition-free sequence over the remaining m-1
// letters). It returns an error for negative m or m > MaxExact.
func Alpha(m int) (uint64, error) {
	if m < 0 {
		return 0, fmt.Errorf("alpha: negative alphabet size %d", m)
	}
	if m > MaxExact {
		return 0, fmt.Errorf("alpha: alpha(%d) overflows uint64 (max m = %d); use AlphaBig", m, MaxExact)
	}
	var a uint64 = 1
	for k := 1; k <= m; k++ {
		a = uint64(k)*a + 1
	}
	return a, nil
}

// MustAlpha is Alpha for m known to be in range; it panics otherwise.
// Intended for tests and experiment code with fixed small m.
func MustAlpha(m int) uint64 {
	a, err := Alpha(m)
	if err != nil {
		panic(err)
	}
	return a
}

// AlphaBig returns alpha(m) as a big.Int for any m >= 0.
func AlphaBig(m int) (*big.Int, error) {
	if m < 0 {
		return nil, fmt.Errorf("alpha: negative alphabet size %d", m)
	}
	a := big.NewInt(1)
	for k := 1; k <= m; k++ {
		a.Mul(a, big.NewInt(int64(k)))
		a.Add(a, big.NewInt(1))
	}
	return a, nil
}

// FloorEFactorial returns floor(e * m!) for m >= 1, which the paper's
// formula equals (the tail sum_{k>m} m!/k! is strictly below 1 for m >= 1).
// Exposed so tests can cross-check the closed form. Returns an error when
// m < 1 (the identity fails at m = 0: alpha(0) = 1 but floor(e) = 2) or
// when the result would overflow.
func FloorEFactorial(m int) (uint64, error) {
	if m < 1 {
		return 0, fmt.Errorf("alpha: floor(e*m!) identity requires m >= 1, got %d", m)
	}
	// Compute floor(e*m!) exactly as alpha(m): avoid float error entirely.
	// This function exists to document the identity; the real cross-check
	// against an independent computation is done with big.Float in tests.
	return Alpha(m)
}

// CountByLength returns, for k = 0..m, the number of repetition-free
// sequences of exactly k items over an m-letter alphabet: m!/(m-k)!
// (partial permutations). The values sum to alpha(m).
func CountByLength(m int) ([]uint64, error) {
	if m < 0 || m > MaxExact {
		return nil, fmt.Errorf("alpha: m = %d out of range [0,%d]", m, MaxExact)
	}
	out := make([]uint64, m+1)
	var v uint64 = 1
	out[0] = 1
	for k := 1; k <= m; k++ {
		v *= uint64(m - k + 1)
		out[k] = v
	}
	return out, nil
}

// Rank returns the zero-based rank of the repetition-free sequence s in
// the depth-first enumeration of the arrangement tree over m letters
// (the order produced by seq.RepetitionFree). It returns an error if s
// has a repetition or an out-of-range item.
func Rank(m int, s seq.Seq) (uint64, error) {
	if m < 0 || m > MaxExact {
		return 0, fmt.Errorf("alpha: m = %d out of range [0,%d]", m, MaxExact)
	}
	used := make([]bool, m)
	var rank uint64
	for d, x := range s {
		if int(x) < 0 || int(x) >= m {
			return 0, fmt.Errorf("alpha: item %d out of domain [0,%d)", int(x), m)
		}
		if used[x] {
			return 0, fmt.Errorf("alpha: sequence %s repeats item %d", s, int(x))
		}
		// Count unused items below x: each owns a subtree of alpha(m-d-1)
		// nodes that is enumerated before x's subtree.
		idx := 0
		for i := 0; i < int(x); i++ {
			if !used[i] {
				idx++
			}
		}
		sub, err := Alpha(m - d - 1)
		if err != nil {
			return 0, err
		}
		rank += 1 + uint64(idx)*sub
		used[x] = true
	}
	return rank, nil
}

// Unrank inverts Rank: it returns the repetition-free sequence over m
// letters whose depth-first rank is r. It returns an error if
// r >= alpha(m).
func Unrank(m int, r uint64) (seq.Seq, error) {
	total, err := Alpha(m)
	if err != nil {
		return nil, err
	}
	if r >= total {
		return nil, fmt.Errorf("alpha: rank %d out of range [0,%d)", r, total)
	}
	used := make([]bool, m)
	var s seq.Seq
	for d := 0; r > 0; d++ {
		r-- // step past the current node; r now indexes into the subtrees
		sub, err := Alpha(m - d - 1)
		if err != nil {
			return nil, err
		}
		idx := r / sub
		r %= sub
		// Find the (idx+1)-th unused item.
		item := -1
		for i, cnt := 0, uint64(0); i < m; i++ {
			if used[i] {
				continue
			}
			if cnt == idx {
				item = i
				break
			}
			cnt++
		}
		if item < 0 {
			return nil, fmt.Errorf("alpha: internal unrank error at depth %d", d)
		}
		used[item] = true
		s = append(s, seq.Item(item))
	}
	return s, nil
}
