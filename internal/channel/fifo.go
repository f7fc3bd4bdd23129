package channel

import (
	"encoding/binary"
	"fmt"
	"strings"

	"seqtx/internal/msg"
)

// FIFO is an order-preserving half with optional loss and duplication —
// the classic data-link physical layer ([BSW69], and the substrate the §5
// hybrid's alternating-bit phase assumes). Only the queue head is
// deliverable. Duplication is modelled as delivering the head without
// consuming it; loss as dropping the head. Both are equivalent in power to
// duplicating/losing arbitrary queue elements, because the queue is only
// observable through head deliveries.
type FIFO struct {
	queue     []msg.Msg
	allowLoss bool
	allowDup  bool
	sentTotal int
	dropped   int
}

var _ Half = (*FIFO)(nil)

// NewFIFO returns an empty FIFO half with the given fault permissions.
func NewFIFO(allowLoss, allowDup bool) *FIFO {
	return &FIFO{allowLoss: allowLoss, allowDup: allowDup}
}

// Kind returns KindFIFO.
func (f *FIFO) Kind() Kind { return KindFIFO }

// AllowsLoss reports whether the half may drop messages.
func (f *FIFO) AllowsLoss() bool { return f.allowLoss }

// AllowsDup reports whether the half may duplicate messages.
func (f *FIFO) AllowsDup() bool { return f.allowDup }

// Send enqueues one copy of m.
func (f *FIFO) Send(m msg.Msg) {
	f.queue = append(f.queue, m)
	f.sentTotal++
}

// DeliverKeep delivers the head without consuming it: a duplication. The
// recipient receives a copy while the original stays queued.
func (f *FIFO) DeliverKeep(m msg.Msg) error {
	if !f.allowDup {
		return fmt.Errorf("channel: fifo: duplication disabled")
	}
	if !f.CanDeliver(m) {
		return fmt.Errorf("channel: fifo: %q is not at the head", m)
	}
	return nil
}

// Deliverable returns the head message (if any) with count 1.
func (f *FIFO) Deliverable() msg.Counts {
	c := msg.Counts{}
	if len(f.queue) > 0 {
		c[f.queue[0]] = 1
	}
	return c
}

// Support returns the head message for i == 0 (if any).
func (f *FIFO) Support(i int) (msg.Msg, bool) {
	if i > 0 || len(f.queue) == 0 {
		return "", false
	}
	return f.queue[0], true
}

// CanDeliver reports whether m is the queue head.
func (f *FIFO) CanDeliver(m msg.Msg) bool {
	return len(f.queue) > 0 && f.queue[0] == m
}

// Deliver hands the head to the recipient and consumes it.
func (f *FIFO) Deliver(m msg.Msg) error {
	if !f.CanDeliver(m) {
		return fmt.Errorf("channel: fifo: %q is not at the head", m)
	}
	f.queue = f.queue[1:]
	return nil
}

// CanDrop reports whether the head is m and loss is allowed.
func (f *FIFO) CanDrop(m msg.Msg) bool {
	return f.allowLoss && len(f.queue) > 0 && f.queue[0] == m
}

// Drop loses the head copy of m.
func (f *FIFO) Drop(m msg.Msg) error {
	if !f.allowLoss {
		return fmt.Errorf("channel: fifo: loss disabled")
	}
	if !f.CanDeliver(m) {
		return fmt.Errorf("channel: fifo: %q is not at the head", m)
	}
	f.queue = f.queue[1:]
	f.dropped++
	return nil
}

// SentTotal returns the number of Send calls.
func (f *FIFO) SentTotal() int { return f.sentTotal }

// Dropped returns how many copies were lost.
func (f *FIFO) Dropped() int { return f.dropped }

// Len returns the queue length.
func (f *FIFO) Len() int { return len(f.queue) }

// Clone returns an independent copy.
func (f *FIFO) Clone() Half {
	cp := &FIFO{
		queue:     append([]msg.Msg(nil), f.queue...),
		allowLoss: f.allowLoss,
		allowDup:  f.allowDup,
		sentTotal: f.sentTotal,
		dropped:   f.dropped,
	}
	return cp
}

// CopyFrom makes f a copy of src (a *FIFO), reusing f's queue.
func (f *FIFO) CopyFrom(src Half) {
	s := src.(*FIFO)
	queue := append(f.queue[:0], s.queue...)
	*f = *s
	f.queue = queue
}

// Key returns the queue contents in order.
func (f *FIFO) Key() string {
	parts := make([]string, len(f.queue))
	for i, m := range f.queue {
		parts[i] = string(m)
	}
	return "fifo[" + strings.Join(parts, ",") + "]"
}

// EncodeKey appends the binary counterpart of Key: the kind tag and the
// queue contents in order, each message length-prefixed.
func (f *FIFO) EncodeKey(buf []byte) []byte {
	buf = append(buf, byte(KindFIFO))
	buf = binary.AppendUvarint(buf, uint64(len(f.queue)))
	for _, m := range f.queue {
		buf = msg.AppendMsg(buf, m)
	}
	return buf
}
