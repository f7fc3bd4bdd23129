package channel

import (
	"fmt"
	"slices"

	"seqtx/internal/msg"
)

// Del is a reordering, deleting half: the channel holds a multiset of
// in-flight copies (the paper's del dlvrble vector: copies sent and not
// yet delivered, §2.2). Delivery consumes a copy; the adversary may also
// silently drop copies. It cannot duplicate or create messages, which is
// what makes counting-based protocols sound: the receiver's received
// multiset is always a sub-multiset of what was actually sent.
type Del struct {
	inflight  multiset
	allowDrop bool
	sentTotal int
	dropped   int
}

var _ Half = (*Del)(nil)

// NewDel returns an empty del half (drops allowed).
func NewDel() *Del {
	return &Del{allowDrop: true}
}

// NewReorder returns an empty reorder-only half: a del half whose copies
// cannot be dropped, so every copy is delivered exactly once. This is the
// restriction of a del channel to its finite-delay-fair behaviours.
func NewReorder() *Del {
	return &Del{}
}

// Kind returns KindDel or KindReorder depending on drop permission.
func (d *Del) Kind() Kind {
	if d.allowDrop {
		return KindDel
	}
	return KindReorder
}

// Send adds one in-flight copy of m.
func (d *Del) Send(m msg.Msg) {
	d.inflight.add(m)
	d.sentTotal++
}

// Deliverable returns a copy of the in-flight multiset.
func (d *Del) Deliverable() msg.Counts { return d.inflight.counts() }

// Support returns the i-th distinct in-flight message in ascending order.
func (d *Del) Support(i int) (msg.Msg, bool) { return d.inflight.support(i) }

// CanDeliver reports whether at least one copy of m is in flight.
func (d *Del) CanDeliver(m msg.Msg) bool { return d.inflight.get(m) > 0 }

// Deliver consumes one in-flight copy of m.
func (d *Del) Deliver(m msg.Msg) error {
	if !d.inflight.remove(m) {
		return fmt.Errorf("channel: %s: no copy of %q in flight", d.Kind(), m)
	}
	return nil
}

// CanDrop reports whether the model allows silently deleting a copy of m.
func (d *Del) CanDrop(m msg.Msg) bool { return d.allowDrop && d.inflight.get(m) > 0 }

// Drop silently deletes one in-flight copy of m.
func (d *Del) Drop(m msg.Msg) error {
	if !d.allowDrop {
		return fmt.Errorf("channel: reorder channels cannot delete messages (%q)", m)
	}
	if !d.inflight.remove(m) {
		return fmt.Errorf("channel: del: no copy of %q in flight to drop", m)
	}
	d.dropped++
	return nil
}

// SentTotal returns the number of Send calls.
func (d *Del) SentTotal() int { return d.sentTotal }

// Dropped returns how many copies were dropped so far.
func (d *Del) Dropped() int { return d.dropped }

// Pending returns the number of copies currently in flight.
func (d *Del) Pending() int { return d.inflight.total() }

// Clone returns an independent copy.
func (d *Del) Clone() Half {
	cp := *d
	cp.inflight = slices.Clone(d.inflight)
	return &cp
}

// cloneIn is Clone carved from s's chunks. The copy's multiset has its
// length for capacity, so a Send past it reallocates and never reaches
// the copy carved next to it.
func (d *Del) cloneIn(s *Store) *Del {
	cp := s.dels.New()
	*cp = *d
	cp.inflight = s.entries.Clone(d.inflight)
	return cp
}

// CopyFrom makes d a copy of src (a *Del), reusing d's multiset.
func (d *Del) CopyFrom(src Half) {
	s := src.(*Del)
	inflight := append(d.inflight[:0], s.inflight...)
	*d = *s
	d.inflight = inflight
}

// Key returns the canonical in-flight multiset. Totals are excluded: two
// halves with equal in-flight multisets behave identically forever.
func (d *Del) Key() string {
	return d.Kind().String() + "{" + d.inflight.counts().Key() + "}"
}

// EncodeKey appends the binary counterpart of Key: the kind tag and the
// canonical in-flight multiset.
func (d *Del) EncodeKey(buf []byte) []byte {
	buf = append(buf, byte(d.Kind()))
	return d.inflight.encodeKey(buf)
}
