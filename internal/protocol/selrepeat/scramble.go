package selrepeat

import (
	"math/rand"

	"seqtx/internal/protocol"
	"seqtx/internal/seq"
)

// Scramble implements protocol.Scrambler: window endpoints land anywhere
// consistent with the structural bounds the Step code indexes by, with an
// arbitrary subset of the outstanding window marked acknowledged.
func (s *sender) Scramble(rng *rand.Rand) {
	n := len(s.input)
	s.base = rng.Intn(n + 1)
	hi := s.base + s.window
	if hi > n {
		hi = n
	}
	s.next = s.base + rng.Intn(hi-s.base+1)
	clear(s.acked)
	for i := s.base; i < s.next; i++ {
		if rng.Intn(2) == 1 {
			s.acked[i%s.window] = true
		}
	}
	s.stalled = rng.Intn(timeoutTicks + 1)
}

var _ protocol.Scrambler = (*sender)(nil)

// Scramble implements protocol.Scrambler: an arbitrary delivered count
// plus an arbitrary out-of-order buffer ahead of it (junk items included
// — exactly the state a transient fault could leave behind).
func (r *receiver) Scramble(rng *rand.Rand) {
	r.next = rng.Intn(2 * (r.window + 1))
	clear(r.slots)
	r.count = 0
	for i := r.next + 1; i < r.next+r.window; i++ {
		if r.m > 0 && rng.Intn(3) == 0 {
			r.slots[i%r.window] = slot{item: seq.Item(rng.Intn(r.m)), held: true}
			r.count++
		}
	}
}

var _ protocol.Scrambler = (*receiver)(nil)
