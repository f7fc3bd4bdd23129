package seq

import (
	"math/rand"
	"testing"
)

// checkTape writes stream to a tape against input in chunks of the given
// sizes (cycled) and checks the judge against its definition after every
// chunk: Len is |Y|, and Violated holds exactly from the first write at
// which Y stops being a prefix of X.
func checkTape(t *testing.T, input, stream Seq, chunks []int) {
	t.Helper()
	var tape Tape
	var y Seq
	for i, c := 0, 0; i < len(stream); c++ {
		n := min(1+chunks[c%len(chunks)], len(stream)-i)
		tape = tape.Write(input, stream[i:i+n])
		y, i = stream[:i+n], i+n
		badAt := -1
		for k := 1; k <= len(y); k++ {
			if !y[:k].IsPrefixOf(input) {
				badAt = k
				break
			}
		}
		if int(tape.Len) != len(y) || tape.Violated != (badAt >= 0) {
			t.Fatalf("X = %s, Y = %s: tape %+v, want Len %d Violated %v", input, y, tape, len(y), badAt >= 0)
		}
		if tape.Complete(input) != y.Equal(input) {
			t.Fatalf("X = %s, Y = %s: Complete = %v", input, y, tape.Complete(input))
		}
	}
}

func TestTapeJudgesPrefix(t *testing.T) {
	t.Parallel()
	x := FromInts(0, 1, 2)
	for _, tt := range []struct {
		name   string
		stream Seq
		chunks []int
	}{
		{"empty", nil, []int{0}},
		{"exact", FromInts(0, 1, 2), []int{0}},
		{"exact in one burst", FromInts(0, 1, 2), []int{2}},
		{"wrong first", FromInts(1), []int{0}},
		{"wrong mid-burst", FromInts(0, 2, 1), []int{2}},
		{"past the end", FromInts(0, 1, 2, 0), []int{1}},
		{"bad then good never recovers", FromInts(0, 0, 2), []int{0}},
	} {
		t.Run(tt.name, func(t *testing.T) { checkTape(t, x, tt.stream, tt.chunks) })
	}
}

// FuzzTape draws X and a write stream over a small domain, so that
// prefixes, first-bad positions and overruns are all common.
func FuzzTape(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		input := make(Seq, rng.Intn(6))
		for i := range input {
			input[i] = Item(rng.Intn(3))
		}
		// Mostly copy X, then stray with some probability per write.
		stream := make(Seq, rng.Intn(len(input)+3))
		for i := range stream {
			if i < len(input) && rng.Intn(4) > 0 {
				stream[i] = input[i]
			} else {
				stream[i] = Item(rng.Intn(3))
			}
		}
		chunks := []int{rng.Intn(3), rng.Intn(3), rng.Intn(3)}
		checkTape(t, input, stream, chunks)
	})
}
