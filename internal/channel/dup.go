package channel

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"seqtx/internal/msg"
)

// Dup is a reordering, duplicating half: the deliverable set is the set of
// messages ever sent (the paper's dup dlvrble vector, §2.2), and delivery
// never removes anything — the channel can produce unboundedly many copies
// of any past message. On the pure dup channel deletion is impossible
// (Property 1c: everything sent is eventually delivered in full); the
// combined dup+del variant (NewDupDel) additionally lets the adversary
// erase a message type — "all copies deleted" — realizing the full fault
// menu of the paper's introduction (delay, reorder, lose, duplicate).
type Dup struct {
	// sent is the set of messages ever sent, kept sorted (a slice, not a
	// map, for the reasons given on multiset).
	sent      []msg.Msg
	allowDrop bool
	sentTotal int
	dropped   int
}

var _ Half = (*Dup)(nil)

// NewDup returns an empty dup half.
func NewDup() *Dup {
	return &Dup{}
}

// NewDupDel returns an empty combined half: reordering, duplication, and
// deletion all at once.
func NewDupDel() *Dup {
	return &Dup{allowDrop: true}
}

// Kind returns KindDup or KindDupDel.
func (d *Dup) Kind() Kind {
	if d.allowDrop {
		return KindDupDel
	}
	return KindDup
}

// Send records that m has been sent; from now on m is deliverable forever.
func (d *Dup) Send(m msg.Msg) {
	if i, ok := slices.BinarySearch(d.sent, m); !ok {
		d.sent = slices.Insert(d.sent, i, m)
	}
	d.sentTotal++
}

// Deliverable returns a 0/1 vector over the messages ever sent.
func (d *Dup) Deliverable() msg.Counts {
	c := make(msg.Counts, len(d.sent))
	for _, m := range d.sent {
		c[m] = 1
	}
	return c
}

// Support returns the i-th message ever sent in ascending order.
func (d *Dup) Support(i int) (msg.Msg, bool) {
	if i >= len(d.sent) {
		return "", false
	}
	return d.sent[i], true
}

// CanDeliver reports whether m was ever sent.
func (d *Dup) CanDeliver(m msg.Msg) bool {
	_, ok := slices.BinarySearch(d.sent, m)
	return ok
}

// Deliver checks deliverability; the deliverable set is unchanged
// (duplication).
func (d *Dup) Deliver(m msg.Msg) error {
	if !d.CanDeliver(m) {
		return fmt.Errorf("channel: dup: %q was never sent", m)
	}
	return nil
}

// CanDrop reports whether m can be erased: never on the pure dup half
// (§2.2 (c)); on the combined half, whenever m is currently deliverable.
func (d *Dup) CanDrop(m msg.Msg) bool { return d.allowDrop && d.CanDeliver(m) }

// Drop erases every copy of m (the deliverable set forgets the type). It
// fails on a pure dup half.
func (d *Dup) Drop(m msg.Msg) error {
	if !d.allowDrop {
		return fmt.Errorf("channel: dup channels cannot delete messages (%q)", m)
	}
	i, ok := slices.BinarySearch(d.sent, m)
	if !ok {
		return fmt.Errorf("channel: dup+del: %q is not deliverable", m)
	}
	d.sent = slices.Delete(d.sent, i, i+1)
	d.dropped++
	return nil
}

// Dropped returns how many types were erased so far.
func (d *Dup) Dropped() int { return d.dropped }

// SentTotal returns the number of Send calls.
func (d *Dup) SentTotal() int { return d.sentTotal }

// Clone returns an independent copy.
func (d *Dup) Clone() Half {
	cp := *d
	cp.sent = slices.Clone(d.sent)
	return &cp
}

// CopyFrom makes d a copy of src (a *Dup), reusing d's sent-set.
func (d *Dup) CopyFrom(src Half) {
	s := src.(*Dup)
	sent := append(d.sent[:0], s.sent...)
	*d = *s
	d.sent = sent
}

// Key returns the sorted sent-set. sentTotal is deliberately excluded:
// two dup halves with the same sent-set behave identically forever.
func (d *Dup) Key() string {
	msgs := make([]string, len(d.sent))
	for i, m := range d.sent {
		msgs[i] = string(m)
	}
	return d.Kind().String() + "{" + strings.Join(msgs, ",") + "}"
}

// EncodeKey appends the binary counterpart of Key: the kind tag and the
// sorted sent-set, each message length-prefixed.
func (d *Dup) EncodeKey(buf []byte) []byte {
	buf = append(buf, byte(d.Kind()))
	buf = binary.AppendUvarint(buf, uint64(len(d.sent)))
	for _, m := range d.sent {
		buf = msg.AppendMsg(buf, m)
	}
	return buf
}
