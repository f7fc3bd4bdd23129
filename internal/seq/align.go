package seq

// Align is the suffix-alignment automaton that judges a write stream
// against an input tape X when the writer may have started from corrupted
// state: Pos/Aligned track the candidate "good suffix" — while aligned,
// the next good write is X[Pos]. The zero value is unaligned (the first
// write defines where the suffix begins). It is a comparable value: the
// model checker keys quotient states on it, and the wire audit holds one
// per supervised session, so both judge a write by the same transition.
type Align struct {
	Pos     int32
	Aligned bool
}

// Step consumes one written item and returns the successor state and
// whether the write was bad. Aligned writes must continue the run
// (input[Pos], Pos < n); anything else is bad and re-aligns to just past
// the item's first occurrence in X, or to unaligned for junk outside X.
// An unaligned write of an X value is NOT bad: it is the candidate start
// of the converging suffix (how a corrupted or cleanly restarted
// receiver's first write is judged).
func (a Align) Step(v Item, input Seq) (Align, bool) {
	if a.Aligned && int(a.Pos) < len(input) && input[a.Pos] == v {
		return Align{Pos: a.Pos + 1, Aligned: true}, false
	}
	for i, x := range input {
		if x == v {
			return Align{Pos: int32(i) + 1, Aligned: true}, a.Aligned
		}
	}
	return Align{}, true
}

// Converged reports the target condition: the suffix ran to the end of X.
func (a Align) Converged(input Seq) bool {
	return a.Aligned && int(a.Pos) == len(input)
}
