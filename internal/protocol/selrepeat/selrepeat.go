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
	return protocol.Spec{
		Name:        fmt.Sprintf("selrepeat(m=%d,W=%d)", m, window),
		Description: "Selective Repeat sliding window over FIFO: per-frame retransmission",
		NewSender: func(input seq.Seq) (protocol.Sender, error) {
			for _, v := range input {
				if int(v) < 0 || int(v) >= m {
					return nil, fmt.Errorf("selrepeat: item %d outside domain of size %d", int(v), m)
				}
			}
			return &sender{window: window, t: t, input: input.Clone(), acked: map[int]bool{}}, nil
		},
		NewReceiver: func() (protocol.Receiver, error) {
			return &receiver{m: m, window: window, t: t, buffered: map[int]seq.Item{}}, nil
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

	base    int          // lowest unacknowledged position
	next    int          // next position never sent
	acked   map[int]bool // individually acknowledged positions >= base
	stalled int

	// scratch is the reused retransmission burst buffer. It is only
	// ever returned from Step (valid until the next Step, per the Step
	// contract) and nil'd on Clone, so model-checker clones never share
	// it across workers.
	scratch []msg.Msg
}

var _ protocol.Sender = (*sender)(nil)

func (s *sender) mod() int { return 2 * s.window }

func (s *sender) Step(ev protocol.Event) []msg.Msg {
	switch ev.Kind {
	case protocol.Recv:
		d, ok := s.t.R.Decode(ev.Msg)
		if !ok {
			return nil // not in M^R
		}
		n := d.F[0]
		// The acknowledged position is the unique one in [base, next)
		// congruent to n (the window never spans mod() positions).
		for p := s.base; p < s.next; p++ {
			if p%s.mod() == n {
				if !s.acked[p] {
					s.acked[p] = true
					s.stalled = 0
				}
				break
			}
		}
		for s.acked[s.base] {
			delete(s.acked, s.base)
			s.base++
		}
		return nil
	case protocol.Tick:
		if s.base >= len(s.input) {
			return nil
		}
		if s.next < len(s.input) && s.next < s.base+s.window {
			m := s.t.S.Send(0, msg.Fields{s.next % s.mod(), int(s.input[s.next])})
			s.next++
			return m
		}
		s.stalled++
		if s.stalled > timeoutTicks {
			s.stalled = 0
			// Selective: retransmit only the unacknowledged frames,
			// reusing the scratch buffer across bursts.
			burst := s.scratch[:0]
			for p := s.base; p < s.next; p++ {
				if !s.acked[p] {
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

func (s *sender) Alphabet() msg.Alphabet { return s.t.S.Alphabet() }

func (s *sender) Done() bool { return s.base >= len(s.input) }

func (s *sender) Clone() protocol.Sender {
	// The input tape is never mutated after construction, so the clone
	// shares it: the model checker clones on every explored transition.
	// The burst scratch is NOT shared: parallel-BFS workers stepping two
	// clones concurrently must not race on one buffer.
	cp := *s
	cp.scratch = nil
	cp.acked = make(map[int]bool, len(s.acked))
	for k, v := range s.acked {
		cp.acked[k] = v
	}
	return &cp
}

func (s *sender) Key() string {
	acked := make([]string, 0, len(s.acked))
	for p := s.base; p < s.next; p++ {
		if s.acked[p] {
			acked = append(acked, fmt.Sprint(p))
		}
	}
	return fmt.Sprintf("srS{b=%d,n=%d,a=%s,st=%d}", s.base, s.next, strings.Join(acked, "."), s.stalled)
}

func (s *sender) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'S')
	buf = binary.AppendUvarint(buf, uint64(s.base))
	buf = binary.AppendUvarint(buf, uint64(s.next))
	count := 0
	for p := s.base; p < s.next; p++ {
		if s.acked[p] {
			count++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(count))
	for p := s.base; p < s.next; p++ {
		if s.acked[p] {
			buf = binary.AppendUvarint(buf, uint64(p))
		}
	}
	return binary.AppendUvarint(buf, uint64(s.stalled))
}

// receiver accepts any frame inside its window, buffers it, acknowledges
// it individually, and writes buffered items as the in-order prefix
// fills in.
type receiver struct {
	m        int
	window   int
	t        *msg.Table
	next     int              // positions written so far
	buffered map[int]seq.Item // accepted positions >= next awaiting the gap

	// wscratch is the reused gap-fill write buffer, nil'd on Clone for
	// the same reason as the sender's burst scratch.
	wscratch seq.Seq
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
	pos := -1
	for p := r.next; p < r.next+r.window; p++ {
		if p%r.mod() == n {
			pos = p
			break
		}
	}
	if pos < 0 {
		// Trailing window: a duplicate of something already delivered.
		return ack, nil
	}
	r.buffered[pos] = seq.Item(v)
	writes := r.wscratch[:0]
	for {
		item, bok := r.buffered[r.next]
		if !bok {
			break
		}
		delete(r.buffered, r.next)
		writes = append(writes, item)
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
	cp.buffered = make(map[int]seq.Item, len(r.buffered))
	for k, v := range r.buffered {
		cp.buffered[k] = v
	}
	return &cp
}

func (r *receiver) Key() string {
	buf := make([]string, 0, len(r.buffered))
	for p := r.next; p < r.next+r.window; p++ {
		if v, ok := r.buffered[p]; ok {
			buf = append(buf, fmt.Sprintf("%d=%d", p, int(v)))
		}
	}
	return fmt.Sprintf("srR{%d|%s}", r.next, strings.Join(buf, ","))
}

func (r *receiver) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'V')
	buf = binary.AppendUvarint(buf, uint64(r.next))
	buf = binary.AppendUvarint(buf, uint64(len(r.buffered)))
	for p := r.next; p < r.next+r.window; p++ {
		if v, ok := r.buffered[p]; ok {
			buf = binary.AppendUvarint(buf, uint64(p))
			buf = binary.AppendVarint(buf, int64(v))
		}
	}
	return buf
}
