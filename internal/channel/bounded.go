package channel

import (
	"encoding/binary"
	"fmt"
	"slices"

	"seqtx/internal/msg"
)

// DefaultBoundedCap is the per-direction capacity used by New for
// KindBounded. It matches the stabilizing protocol's default capacity
// assumption (stab.DefaultCapacity): acceptance thresholds of c+1 are
// sound exactly when the channel never holds more than c copies.
const DefaultBoundedCap = 2

// Bounded is a reordering, deleting half of finite capacity: at most cap
// copies are in flight at once, and a Send into a full channel loses the
// new copy (a legal del-channel behaviour, forced rather than chosen).
// This is the channel model of the self-stabilization literature
// (Dolev–Dubois–Potop-Butucaru–Tixeuil, arXiv 1104.3947): stabilizing
// data-link protocols count message copies, and the counting argument
// needs "at most c stale copies can ever exist" to be a property of the
// channel, not of the schedule. Every bounded run is also a del run (the
// overflow loss is a drop the del adversary could have chosen), so safety
// on del implies safety on bounded; the converse fails — and the bounded
// model is the one where corrupted-state recovery is provable with a
// finite state space.
type Bounded struct {
	inflight  multiset
	cap       int
	sentTotal int
	lost      int
}

var _ Half = (*Bounded)(nil)

// NewBounded returns an empty bounded half with the given capacity
// (values < 1 select DefaultBoundedCap).
func NewBounded(capacity int) *Bounded {
	if capacity < 1 {
		capacity = DefaultBoundedCap
	}
	return &Bounded{cap: capacity}
}

// Kind returns KindBounded.
func (b *Bounded) Kind() Kind { return KindBounded }

// Cap returns the capacity bound.
func (b *Bounded) Cap() int { return b.cap }

// Send adds one in-flight copy of m, or loses it if the channel is full.
func (b *Bounded) Send(m msg.Msg) {
	b.sentTotal++
	if b.inflight.total() >= b.cap {
		b.lost++
		return
	}
	b.inflight.add(m)
}

// Deliverable returns a copy of the in-flight multiset.
func (b *Bounded) Deliverable() msg.Counts { return b.inflight.counts() }

// Support returns the i-th distinct in-flight message in ascending order.
func (b *Bounded) Support(i int) (msg.Msg, bool) { return b.inflight.support(i) }

// CanDeliver reports whether at least one copy of m is in flight.
func (b *Bounded) CanDeliver(m msg.Msg) bool { return b.inflight.get(m) > 0 }

// Deliver consumes one in-flight copy of m.
func (b *Bounded) Deliver(m msg.Msg) error {
	if !b.inflight.remove(m) {
		return fmt.Errorf("channel: bounded: no copy of %q in flight", m)
	}
	return nil
}

// CanDrop reports whether a copy of m can be silently deleted.
func (b *Bounded) CanDrop(m msg.Msg) bool { return b.inflight.get(m) > 0 }

// Drop silently deletes one in-flight copy of m.
func (b *Bounded) Drop(m msg.Msg) error {
	if !b.inflight.remove(m) {
		return fmt.Errorf("channel: bounded: no copy of %q in flight to drop", m)
	}
	b.lost++
	return nil
}

// SentTotal returns the number of Send calls (including overflow losses).
func (b *Bounded) SentTotal() int { return b.sentTotal }

// Lost returns how many copies were lost (overflow plus drops).
func (b *Bounded) Lost() int { return b.lost }

// Pending returns the number of copies currently in flight.
func (b *Bounded) Pending() int { return b.inflight.total() }

// Clone returns an independent copy.
func (b *Bounded) Clone() Half {
	cp := *b
	cp.inflight = slices.Clone(b.inflight)
	return &cp
}

// CopyFrom makes b a copy of src (a *Bounded), reusing b's multiset.
func (b *Bounded) CopyFrom(src Half) {
	s := src.(*Bounded)
	inflight := append(b.inflight[:0], s.inflight...)
	*b = *s
	b.inflight = inflight
}

// Key returns the canonical in-flight multiset plus the capacity (halves
// of different capacity behave differently on overflow).
func (b *Bounded) Key() string {
	return fmt.Sprintf("bounded(%d){%s}", b.cap, b.inflight.counts().Key())
}

// EncodeKey appends the binary counterpart of Key.
func (b *Bounded) EncodeKey(buf []byte) []byte {
	buf = append(buf, byte(KindBounded))
	buf = binary.AppendUvarint(buf, uint64(b.cap))
	return b.inflight.encodeKey(buf)
}
