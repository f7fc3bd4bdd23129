// Package gobackn implements the Go-Back-N sliding-window protocol over
// the FIFO channel with loss and duplication — the classic data-link
// pipelining refinement of the alternating-bit protocol (the [BSW69]
// lineage the paper's introduction situates STP in).
//
// The sender keeps up to Window unacknowledged frames in flight, each
// numbered modulo Window+1; the receiver accepts only the next expected
// number and acknowledges cumulatively. On a timeout the sender re-sends
// the whole outstanding window ("go back n").
//
// Relevance to the paper: Go-Back-N needs only Window+1 distinct numbers
// BECAUSE the channel preserves order. Under reordering, frame numbers
// taken modulo anything collide exactly like modseq's (experiment T9/T7
// territory), and the alpha(m) bound bites again. The package exhibits
// the boundary: safe and fast on FIFO, refutable on reordering channels.
// The benchmark ablation measures the pipelining win over stop-and-wait.
package gobackn

import (
	"encoding/binary"
	"fmt"

	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/slab"
)

// DataMsg encodes item v under frame number n (modulo window+1).
func DataMsg(mod, n int, v seq.Item) msg.Msg { return msg.Format("g", n%mod, int(v)) }

// AckMsg encodes the cumulative acknowledgement "expecting frame n next".
func AckMsg(mod, n int) msg.Msg { return msg.Format("ga", n%mod) }

// Decl declares M^S = g:{W+1}:{m} and M^R = ga:{W+1} for window W:
// |M^S| = (W+1)·m, |M^R| = W+1.
func Decl(m, window int) msg.Decl {
	return msg.Decl{Sender: msg.Kinds{msg.K("g", window+1, m)}, Receiver: msg.Kinds{msg.K("ga", window+1)}}
}

// New returns the protocol spec for domain size m and window >= 1.
// The frame-number space is window+1 (the classic minimum for Go-Back-N),
// so |M^S| = (window+1)·m and |M^R| = window+1.
func New(m, window int) (protocol.Spec, error) {
	if m < 0 {
		return protocol.Spec{}, fmt.Errorf("gobackn: negative domain size %d", m)
	}
	if window < 1 {
		return protocol.Spec{}, fmt.Errorf("gobackn: window %d < 1", window)
	}
	t := msg.TableFor(Decl(m, window))
	var (
		senders   slab.Slab[sender]
		receivers slab.Slab[receiver]
		items     slab.Slab[seq.Item]
	)
	return protocol.Spec{
		Name:        fmt.Sprintf("gobackn(m=%d,W=%d)", m, window),
		Description: "Go-Back-N sliding window over FIFO: pipelined stop-and-wait",
		NewSender: func(input seq.Seq) (protocol.Sender, error) {
			for _, v := range input {
				if int(v) < 0 || int(v) >= m {
					return nil, fmt.Errorf("gobackn: item %d outside domain of size %d", int(v), m)
				}
			}
			s := senders.New()
			*s = sender{window: window, t: t, input: items.Clone(input)}
			return s, nil
		},
		NewReceiver: func() (protocol.Receiver, error) {
			r := receivers.New()
			*r = receiver{window: window, t: t}
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

// timeoutTicks is how many spontaneous steps the sender waits without a
// new cumulative ack before going back and re-sending the window.
const timeoutTicks = 6

type sender struct {
	window int
	t      *msg.Table
	input  seq.Seq

	base    int  // lowest unacknowledged position
	next    int  // next position to send fresh (base <= next <= base+window)
	stalled int  // ticks since the last ack progress
	moved   bool // the last Step moved base, next or stalled

	// scratch is the reused go-back burst buffer. It is only ever
	// returned from Step (whose contract says the slice is valid until
	// the next Step) and nil'd on Clone, so a clone never aliases a
	// slice the original's Step returned.
	scratch []msg.Msg
}

var _ protocol.Sender = (*sender)(nil)

func (s *sender) mod() int { return s.window + 1 }

func (s *sender) Step(ev protocol.Event) []msg.Msg {
	s.moved = false
	switch ev.Kind {
	case protocol.Recv:
		d, ok := s.t.R.Decode(ev.Msg)
		if !ok {
			return nil // not in M^R
		}
		n := d.F[0]
		// Cumulative ack: the receiver expects frame n next. The true
		// expectation position p lies in [base, next], whose span is at
		// most the window, so p is the unique position there congruent to
		// n modulo window+1 — slide base to it.
		for s.base < s.next && s.base%s.mod() != n {
			s.base++
			s.stalled = 0
			s.moved = true
		}
		return nil
	case protocol.Tick:
		if s.base >= len(s.input) {
			return nil // everything acknowledged
		}
		if s.next < len(s.input) && s.next < s.base+s.window {
			// Pipeline: send a fresh frame.
			m := s.t.S.Send(0, msg.Fields{s.next % s.mod(), int(s.input[s.next])})
			s.next++
			s.moved = true
			return m
		}
		// Window full (or input exhausted): wait for acks, then go back.
		s.stalled++ // or reset to 0 below: changed either way
		s.moved = true
		if s.stalled > timeoutTicks {
			s.stalled = 0
			// Go back n: retransmit the whole outstanding window in one
			// burst (each frame is a separate message on the link),
			// reusing the scratch buffer across bursts.
			burst := s.scratch[:0]
			for i := s.base; i < s.next; i++ {
				burst = append(burst, s.t.S.Msg(0, msg.Fields{i % s.mod(), int(s.input[i])}))
			}
			s.scratch = burst
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
	return &cp
}

func (s *sender) Key() string {
	return fmt.Sprintf("gbnS{b=%d,n=%d,st=%d}", s.base, s.next, s.stalled)
}

func (s *sender) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'G')
	buf = binary.AppendUvarint(buf, uint64(s.base))
	buf = binary.AppendUvarint(buf, uint64(s.next))
	return binary.AppendUvarint(buf, uint64(s.stalled))
}

// receiver accepts in-order frames only, acking cumulatively with the
// next expected frame number (re-acking on out-of-order arrivals, which
// on FIFO means "frames lost ahead of me — go back").
type receiver struct {
	window int
	t      *msg.Table
	next   int         // positions delivered so far
	w      [1]seq.Item // the one-item tape Step returns
}

var _ protocol.Receiver = (*receiver)(nil)

func (r *receiver) mod() int { return r.window + 1 }

func (r *receiver) Step(ev protocol.Event) ([]msg.Msg, seq.Seq) {
	if ev.Kind != protocol.Recv {
		return nil, nil
	}
	d, ok := r.t.S.Decode(ev.Msg)
	if !ok {
		return nil, nil // not in M^S
	}
	var writes seq.Seq
	if d.F[0] == r.next%r.mod() {
		r.next++
		r.w[0] = seq.Item(d.F[1])
		writes = r.w[:]
	}
	// Acknowledge the (possibly new) expectation: on an unexpected frame
	// that is a re-ack telling the sender where to resume.
	return r.t.R.Send(0, msg.Fields{r.next % r.mod()}), writes
}

func (r *receiver) Alphabet() msg.Alphabet { return r.t.R.Alphabet() }

func (r *receiver) Clone() protocol.Receiver {
	cp := *r
	return &cp
}

func (r *receiver) Key() string { return fmt.Sprintf("gbnR{%d}", r.next) }

func (r *receiver) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'g')
	return binary.AppendUvarint(buf, uint64(r.next))
}
