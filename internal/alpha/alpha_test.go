package alpha

import (
	"math/big"
	"testing"
	"testing/quick"

	"seqtx/internal/seq"
)

func TestAlphaSmallValues(t *testing.T) {
	t.Parallel()
	// alpha(m) = m! sum 1/k!: 1, 2, 5, 16, 65, 326, 1957, 13700, 109601.
	want := []uint64{1, 2, 5, 16, 65, 326, 1957, 13700, 109601}
	for m, w := range want {
		got, err := Alpha(m)
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Errorf("Alpha(%d) = %d, want %d", m, got, w)
		}
	}
}

func TestAlphaErrors(t *testing.T) {
	t.Parallel()
	if _, err := Alpha(-1); err == nil {
		t.Error("Alpha(-1) succeeded")
	}
	if _, err := Alpha(MaxExact + 1); err == nil {
		t.Error("Alpha(21) succeeded, want overflow error")
	}
	if _, err := Alpha(MaxExact); err != nil {
		t.Errorf("Alpha(%d) failed: %v", MaxExact, err)
	}
}

func TestAlphaMatchesEnumeration(t *testing.T) {
	t.Parallel()
	for m := 0; m <= 7; m++ {
		want := len(seq.RepetitionFree(m))
		got := MustAlpha(m)
		if got != uint64(want) {
			t.Errorf("Alpha(%d) = %d, enumeration gives %d", m, got, want)
		}
	}
}

func TestAlphaBigMatchesExact(t *testing.T) {
	t.Parallel()
	for m := 0; m <= MaxExact; m++ {
		b, err := AlphaBig(m)
		if err != nil {
			t.Fatal(err)
		}
		if b.Cmp(new(big.Int).SetUint64(MustAlpha(m))) != 0 {
			t.Errorf("AlphaBig(%d) = %s != Alpha = %d", m, b, MustAlpha(m))
		}
	}
	if _, err := AlphaBig(-2); err == nil {
		t.Error("AlphaBig(-2) succeeded")
	}
	// Beyond uint64 range it still works.
	if _, err := AlphaBig(30); err != nil {
		t.Errorf("AlphaBig(30) failed: %v", err)
	}
}

func TestFloorEFactorialIdentity(t *testing.T) {
	t.Parallel()
	// Independent high-precision check: alpha(m) == floor(e*m!) for m>=1.
	const prec = 256
	e := bigE(prec)
	fact := big.NewFloat(1).SetPrec(prec)
	for m := 1; m <= 15; m++ {
		fact.Mul(fact, big.NewFloat(float64(m)))
		prod := new(big.Float).SetPrec(prec).Mul(e, fact)
		floor, _ := prod.Int(nil)
		if floor.Cmp(new(big.Int).SetUint64(MustAlpha(m))) != 0 {
			t.Errorf("floor(e*%d!) = %s, alpha = %d", m, floor, MustAlpha(m))
		}
		got, err := FloorEFactorial(m)
		if err != nil {
			t.Fatal(err)
		}
		if got != MustAlpha(m) {
			t.Errorf("FloorEFactorial(%d) = %d", m, got)
		}
	}
	if _, err := FloorEFactorial(0); err == nil {
		t.Error("FloorEFactorial(0) succeeded; identity fails at m=0")
	}
}

// bigE computes e = sum 1/k! to the given precision.
func bigE(prec uint) *big.Float {
	e := big.NewFloat(0).SetPrec(prec)
	term := big.NewFloat(1).SetPrec(prec)
	for k := 1; k <= 60; k++ {
		e.Add(e, term)
		term.Quo(term, big.NewFloat(float64(k)))
	}
	return e
}

func TestCountByLength(t *testing.T) {
	t.Parallel()
	counts, err := CountByLength(3)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 3, 6, 6}
	for k, w := range want {
		if counts[k] != w {
			t.Errorf("CountByLength(3)[%d] = %d, want %d", k, counts[k], w)
		}
	}
	var sum uint64
	for _, c := range counts {
		sum += c
	}
	if sum != MustAlpha(3) {
		t.Errorf("sum = %d, want alpha(3) = %d", sum, MustAlpha(3))
	}
	if _, err := CountByLength(-1); err == nil {
		t.Error("CountByLength(-1) succeeded")
	}
}

func TestRankUnrankRoundTrip(t *testing.T) {
	t.Parallel()
	for m := 0; m <= 5; m++ {
		all := seq.RepetitionFree(m)
		for want, s := range all {
			r, err := Rank(m, s)
			if err != nil {
				t.Fatalf("Rank(%d, %s): %v", m, s, err)
			}
			if r != uint64(want) {
				t.Errorf("Rank(%d, %s) = %d, want %d (DFS position)", m, s, r, want)
			}
			back, err := Unrank(m, r)
			if err != nil {
				t.Fatalf("Unrank(%d, %d): %v", m, r, err)
			}
			if !back.Equal(s) {
				t.Errorf("Unrank(Rank(%s)) = %s", s, back)
			}
		}
	}
}

func TestRankErrors(t *testing.T) {
	t.Parallel()
	if _, err := Rank(2, seq.FromInts(0, 0)); err == nil {
		t.Error("Rank of repeating sequence succeeded")
	}
	if _, err := Rank(2, seq.FromInts(5)); err == nil {
		t.Error("Rank of out-of-domain item succeeded")
	}
	if _, err := Unrank(2, MustAlpha(2)); err == nil {
		t.Error("Unrank past alpha(m) succeeded")
	}
}

func TestUnrankProperty(t *testing.T) {
	t.Parallel()
	f := func(raw uint32) bool {
		m := 6
		r := uint64(raw) % MustAlpha(m)
		s, err := Unrank(m, r)
		if err != nil {
			return false
		}
		if s.HasRepetition() {
			return false
		}
		back, err := Rank(m, s)
		return err == nil && back == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestAlphaRecurrenceProperty(t *testing.T) {
	t.Parallel()
	// alpha(m) = m*alpha(m-1) + 1 for all exact m.
	for m := 1; m <= MaxExact; m++ {
		if MustAlpha(m) != uint64(m)*MustAlpha(m-1)+1 {
			t.Errorf("recurrence fails at m = %d", m)
		}
	}
}
