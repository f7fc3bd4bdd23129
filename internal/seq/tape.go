package seq

// Tape is the prefix judge: an output tape Y by identity — its length and
// whether Y has left the input X. While it has not, Y is X's prefix of
// that length, and once it has it never comes back, so the two decide
// every later verdict at O(1) a write. The searches key nodes on it; a
// sim.World and a plain wire session judge each write with it.
type Tape struct {
	Len      int32
	Violated bool
}

// Write returns the tape after the writer appends writes, judged against
// input: the tape is violated from the first item that is not X's item
// at its position.
func (t Tape) Write(input, writes Seq) Tape {
	for _, item := range writes {
		if int(t.Len) >= len(input) || input[t.Len] != item {
			t.Violated = true
		}
		t.Len++
	}
	return t
}

// Complete reports Y = X.
func (t Tape) Complete(input Seq) bool { return int(t.Len) == len(input) && !t.Violated }
