// Package selrepeat implements the Selective Repeat sliding-window
// protocol over the FIFO channel with loss and duplication: the classic
// refinement of Go-Back-N in which the receiver buffers out-of-order...
// except that on a FIFO link nothing arrives out of order — frames arrive
// in send order with gaps where copies were lost. Selective Repeat's win
// over Go-Back-N is therefore that a loss costs ONE retransmission
// instead of a whole window: the receiver acknowledges each frame
// individually, and the sender retransmits only the unacknowledged ones.
//
// The frame-number space is 2·Window (the textbook minimum: the
// receiver's acceptance window and the sender's retransmission window
// must never overlap modulo the number space).
//
// Relevance to the paper: a third point on the alphabet-vs-performance
// curve of the data-link lineage ([BSW69], [Ste76]). Like every
// mod-numbered scheme it is safe only because the channel preserves
// order; the model checker exhibits its failure under reordering, and the
// alpha(m) bound explains why no amount of cleverness can avoid that.
package selrepeat

import (
	"encoding/binary"
	"fmt"
	"strings"

	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/slab"
)

// DataMsg encodes item v under frame number n (modulo 2·window).
func DataMsg(mod, n int, v seq.Item) msg.Msg { return msg.Format("s", n%mod, int(v)) }

// AckMsg encodes the individual acknowledgement of frame n.
func AckMsg(mod, n int) msg.Msg { return msg.Format("sa", n%mod) }

// Decl declares M^S = s:{2W}:{m} and M^R = sa:{2W} for window W:
// |M^S| = 2W·m, |M^R| = 2W.
func Decl(m, window int) msg.Decl {
	return msg.Decl{Sender: msg.Kinds{msg.K("s", 2*window, m)}, Receiver: msg.Kinds{msg.K("sa", 2*window)}}
}

// New returns the protocol spec for domain size m and window >= 1.
// |M^S| = 2·window·m, |M^R| = 2·window.
func New(m, window int) (protocol.Spec, error) {
	if m < 0 {
		return protocol.Spec{}, fmt.Errorf("selrepeat: negative domain size %d", m)
	}
	if window < 1 {
		return protocol.Spec{}, fmt.Errorf("selrepeat: window %d < 1", window)
	}
	t := msg.TableFor(Decl(m, window))
	var (
		senders   slab.Slab[sender]
		receivers slab.Slab[receiver]
		items     slab.Slab[seq.Item]
		flags     slab.Slab[bool]
		slots     slab.Slab[slot]
	)
	return protocol.Spec{
		Name:        fmt.Sprintf("selrepeat(m=%d,W=%d)", m, window),
		Description: "Selective Repeat sliding window over FIFO: per-frame retransmission",
		NewSender: func(input seq.Seq) (protocol.Sender, error) {
			for _, v := range input {
				if int(v) < 0 || int(v) >= m {
					return nil, fmt.Errorf("selrepeat: item %d outside domain of size %d", int(v), m)
				}
			}
			s := senders.New()
			*s = sender{window: window, t: t, input: items.Clone(input), acked: flags.Make(window)}
			return s, nil
		},
		NewReceiver: func() (protocol.Receiver, error) {
			r := receivers.New()
			*r = receiver{m: m, window: window, t: t, slots: slots.Make(window)}
			return r, nil
		},
	}, nil
}

// MustNew is New for validated parameters; it panics on error.
func MustNew(m, window int) protocol.Spec {
	s, err := New(m, window)
	if err != nil {
		panic(err)
	}
	return s
}

// timeoutTicks is how long the sender waits with a full window before
// retransmitting its unacknowledged frames.
const timeoutTicks = 6

type sender struct {
	window int
	t      *msg.Table
	input  seq.Seq

	base int // lowest unacknowledged position
	next int // next position never sent (base <= next <= base+window)
	// acked is the window as a ring: acked[p%window] says whether
	// position p in [base, next) is individually acknowledged. Slots of
	// positions outside [base, next) are false.
	acked   []bool
	stalled int
	moved   bool // the last Step moved base, next, stalled or an acked slot

	// scratch is the reused retransmission burst buffer. It is only
	// ever returned from Step (valid until the next Step, per the Step
	// contract) and nil'd on Clone, so a clone never aliases a slice
	// the original's Step returned.
	scratch []msg.Msg
}

var _ protocol.Sender = (*sender)(nil)

func (s *sender) mod() int { return 2 * s.window }

func (s *sender) Step(ev protocol.Event) []msg.Msg {
	s.moved = false
	switch ev.Kind {
	case protocol.Recv:
		d, ok := s.t.R.Decode(ev.Msg)
		if !ok {
			return nil // not in M^R
		}
		n := d.F[0]
		// The acknowledged position is the unique one in [base, next)
		// congruent to n (the window never spans mod() positions).
		if off := (n - s.base%s.mod() + s.mod()) % s.mod(); off < s.next-s.base {
			if i := (s.base + off) % s.window; !s.acked[i] {
				s.acked[i] = true
				s.stalled = 0
				s.moved = true
			}
		}
		// The slide moves alone where a Scramble left acked slots at base.
		for i := s.base % s.window; s.acked[i]; i = succ(i, s.window) {
			s.acked[i] = false
			s.base++
			s.moved = true
		}
		return nil
	case protocol.Tick:
		if s.base >= len(s.input) {
			return nil
		}
		if s.next < len(s.input) && s.next < s.base+s.window {
			m := s.t.S.Send(0, msg.Fields{s.next % s.mod(), int(s.input[s.next])})
			s.next++
			s.moved = true
			return m
		}
		s.stalled++ // or reset to 0 below: changed either way
		s.moved = true
		if s.stalled > timeoutTicks {
			s.stalled = 0
			// Selective: retransmit only the unacknowledged frames,
			// reusing the scratch buffer across bursts.
			burst := s.scratch[:0]
			for p, i := s.base, s.base%s.window; p < s.next; p, i = p+1, succ(i, s.window) {
				if !s.acked[i] {
					burst = append(burst, s.t.S.Msg(0, msg.Fields{p % s.mod(), int(s.input[p])}))
				}
			}
			s.scratch = burst
			if len(burst) == 0 {
				return nil
			}
			return burst
		}
		return nil
	default:
		return nil
	}
}

func (s *sender) Moved() bool            { return s.moved }
func (s *sender) Alphabet() msg.Alphabet { return s.t.S.Alphabet() }

func (s *sender) Done() bool { return s.base >= len(s.input) }

func (s *sender) Clone() protocol.Sender {
	// The input tape is never mutated after construction, so the clone
	// shares it: the model checker clones on every explored transition.
	// The burst scratch is NOT shared: a Step of the clone must not
	// overwrite the slice a Step of the original returned.
	cp := *s
	cp.scratch = nil
	cp.acked = append([]bool(nil), s.acked...)
	return &cp
}

func (s *sender) Key() string {
	var acked []string
	for p, i := s.base, s.base%s.window; p < s.next; p, i = p+1, succ(i, s.window) {
		if s.acked[i] {
			acked = append(acked, fmt.Sprint(p))
		}
	}
	return fmt.Sprintf("srS{b=%d,n=%d,a=%s,st=%d}", s.base, s.next, strings.Join(acked, "."), s.stalled)
}

func (s *sender) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'S')
	buf = binary.AppendUvarint(buf, uint64(s.base))
	buf = binary.AppendUvarint(buf, uint64(s.next))
	b := s.base % s.window
	count := 0
	for p, i := s.base, b; p < s.next; p, i = p+1, succ(i, s.window) {
		if s.acked[i] {
			count++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(count))
	for p, i := s.base, b; p < s.next; p, i = p+1, succ(i, s.window) {
		if s.acked[i] {
			buf = binary.AppendUvarint(buf, uint64(p))
		}
	}
	return binary.AppendUvarint(buf, uint64(s.stalled))
}

// succ is the ring slot after slot i of an n-slot ring: a window walk
// takes no division per slot.
func succ(i, n int) int {
	if i++; i == n {
		return 0
	}
	return i
}

// receiver accepts any frame inside its window, buffers it, acknowledges
// it individually, and writes buffered items as the in-order prefix
// fills in.
type receiver struct {
	m      int
	window int
	t      *msg.Table
	next   int // positions written so far
	// slots is the acceptance window [next, next+window) as a ring:
	// slots[p%window] holds position p once accepted, until the gap
	// before it fills; count is how many are held.
	slots []slot
	count int

	// wscratch is the reused gap-fill write buffer, nil'd on Clone for
	// the same reason as the sender's burst scratch.
	wscratch seq.Seq
}

// slot is one position of the receiver's window ring.
type slot struct {
	item seq.Item
	held bool
}

var _ protocol.Receiver = (*receiver)(nil)

func (r *receiver) mod() int { return 2 * r.window }

func (r *receiver) Step(ev protocol.Event) ([]msg.Msg, seq.Seq) {
	if ev.Kind != protocol.Recv {
		return nil, nil
	}
	d, ok := r.t.S.Decode(ev.Msg)
	if !ok {
		return nil, nil // not in M^S
	}
	n, v := d.F[0], d.F[1]
	ack := r.t.R.Send(0, msg.Fields{n})
	// Identify the position: within the acceptance window [next,
	// next+window) it is the unique one congruent to n. A frame congruent
	// to an already-delivered position (the trailing window) is a
	// retransmission: re-ack it but do not buffer.
	off := (n - r.next%r.mod() + r.mod()) % r.mod()
	if off >= r.window {
		// Trailing window: a duplicate of something already delivered.
		return ack, nil
	}
	sl := &r.slots[(r.next+off)%r.window]
	if !sl.held {
		r.count++
	}
	*sl = slot{item: seq.Item(v), held: true}
	writes := r.wscratch[:0]
	for i := r.next % r.window; r.slots[i].held; i = succ(i, r.window) {
		writes = append(writes, r.slots[i].item)
		r.slots[i] = slot{}
		r.count--
		r.next++
	}
	r.wscratch = writes
	if len(writes) == 0 {
		return ack, nil
	}
	return ack, writes
}

func (r *receiver) Alphabet() msg.Alphabet { return r.t.R.Alphabet() }

func (r *receiver) Clone() protocol.Receiver {
	cp := *r
	cp.wscratch = nil
	cp.slots = append([]slot(nil), r.slots...)
	return &cp
}

func (r *receiver) Key() string {
	var buf []string
	for p, i := r.next, r.next%r.window; p < r.next+r.window; p, i = p+1, succ(i, r.window) {
		if r.slots[i].held {
			buf = append(buf, fmt.Sprintf("%d=%d", p, int(r.slots[i].item)))
		}
	}
	return fmt.Sprintf("srR{%d|%s}", r.next, strings.Join(buf, ","))
}

func (r *receiver) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'V')
	buf = binary.AppendUvarint(buf, uint64(r.next))
	buf = binary.AppendUvarint(buf, uint64(r.count))
	for p, i := r.next, r.next%r.window; p < r.next+r.window; p, i = p+1, succ(i, r.window) {
		if r.slots[i].held {
			buf = binary.AppendUvarint(buf, uint64(p))
			buf = binary.AppendVarint(buf, int64(r.slots[i].item))
		}
	}
	return buf
}
