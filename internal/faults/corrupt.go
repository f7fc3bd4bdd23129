package faults

import (
	"encoding/binary"
	"fmt"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
)

// Corrupt wraps a channel half and substitutes messages in flight: every
// everyN-th send is replaced by the message previously sent on the same
// half (if any, and different). Because the substitute was itself a
// legitimate send, corruption never leaves the protocol's declared
// alphabet — it stays inside the paper's finite-alphabet model while
// falsifying the content, which is exactly the "corrupt" fault the
// paper's introduction names and its channels exclude.
//
// The wrapper sits below the link's alphabet enforcement (the link checks
// the original message, the wrapper swaps afterwards), and it is
// deterministic given the send sequence, so corrupted runs replay and
// shrink like any other.
type Corrupt struct {
	inner     channel.Half
	everyN    int
	sends     int
	corrupted int
	prev      msg.Msg
	hasPrev   bool
}

var _ channel.Half = (*Corrupt)(nil)

// NewCorrupt wraps inner with previous-message substitution on every
// everyN-th send (everyN is clamped to >= 1).
func NewCorrupt(inner channel.Half, everyN int) *Corrupt {
	if everyN < 1 {
		everyN = 1
	}
	return &Corrupt{inner: inner, everyN: everyN}
}

// Kind returns the wrapped half's kind.
func (c *Corrupt) Kind() channel.Kind { return c.inner.Kind() }

// Send stores m, or its substitute on corruption steps.
func (c *Corrupt) Send(m msg.Msg) {
	c.sends++
	stored := m
	if c.sends%c.everyN == 0 && c.hasPrev && c.prev != m {
		stored = c.prev
		c.corrupted++
	}
	c.prev = m
	c.hasPrev = true
	c.inner.Send(stored)
}

// Deliverable delegates to the wrapped half.
func (c *Corrupt) Deliverable() msg.Counts { return c.inner.Deliverable() }

// Support delegates to the wrapped half.
func (c *Corrupt) Support(i int) (msg.Msg, bool) { return c.inner.Support(i) }

// CanDeliver delegates to the wrapped half.
func (c *Corrupt) CanDeliver(m msg.Msg) bool { return c.inner.CanDeliver(m) }

// Deliver delegates to the wrapped half.
func (c *Corrupt) Deliver(m msg.Msg) error { return c.inner.Deliver(m) }

// CanDrop delegates to the wrapped half.
func (c *Corrupt) CanDrop(m msg.Msg) bool { return c.inner.CanDrop(m) }

// Drop delegates to the wrapped half.
func (c *Corrupt) Drop(m msg.Msg) error { return c.inner.Drop(m) }

// SentTotal counts Send calls (corrupted or not).
func (c *Corrupt) SentTotal() int { return c.inner.SentTotal() }

// Corrupted returns how many sends were substituted so far.
func (c *Corrupt) Corrupted() int { return c.corrupted }

// Clone returns an independent deep copy.
func (c *Corrupt) Clone() channel.Half {
	cp := *c
	cp.inner = c.inner.Clone()
	return &cp
}

// CopyFrom makes c a copy of src (a *Corrupt over a half of c's inner
// type), reusing c's inner half.
func (c *Corrupt) CopyFrom(src channel.Half) {
	s := src.(*Corrupt)
	inner := c.inner
	*c = *s
	inner.CopyFrom(s.inner)
	c.inner = inner
}

// Key combines the wrapped key with the corruption phase: two wrapped
// halves behave identically only when the inner states match and the
// next corruption is equally far away.
func (c *Corrupt) Key() string {
	return fmt.Sprintf("corrupt(%d,%d,%s)@%s", c.everyN, c.sends%c.everyN, c.prev, c.inner.Key())
}

// EncodeKey appends the binary counterpart of Key: the corruption
// parameters and phase followed by the wrapped half's encoding.
func (c *Corrupt) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'c')
	buf = binary.AppendUvarint(buf, uint64(c.everyN))
	buf = binary.AppendUvarint(buf, uint64(c.sends%c.everyN))
	buf = msg.AppendMsg(buf, c.prev)
	return c.inner.EncodeKey(buf)
}
