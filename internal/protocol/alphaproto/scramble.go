package alphaproto

import (
	"math/rand"

	"seqtx/internal/protocol"
	"seqtx/internal/seq"
)

// Scramble implements protocol.Scrambler: the position lands anywhere in
// [0, len(input)].
func (s *sender) Scramble(rng *rand.Rand) {
	s.idx = rng.Intn(len(s.input) + 1)
}

var _ protocol.Scrambler = (*sender)(nil)

// Scramble implements protocol.Scrambler: the receiver restarts with an
// arbitrary write history — a random subset of the domain in a random
// order, with the seen set matching it (seen is derived from written, so
// a type-valid state keeps them consistent). A poisoned seen set is the
// interesting corruption: the receiver will silently refuse values it
// never actually wrote. It rewrites the receiver's own seen and written
// in place, which a Clone never shares.
func (r *receiver) Scramble(rng *rand.Rand) {
	m := len(r.seen)
	perm := rng.Perm(m)
	k := 0
	if m > 0 {
		k = rng.Intn(m + 1)
	}
	clear(r.seen)
	r.written = r.written[:0]
	for _, v := range perm[:k] {
		r.seen[v] = true
		r.written = append(r.written, seq.Item(v))
	}
}

var _ protocol.Scrambler = (*receiver)(nil)
