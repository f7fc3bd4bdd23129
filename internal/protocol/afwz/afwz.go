// Package afwz implements a stand-in for the protocol of [AFWZ89]
// ("Reliable communication using unreliable channels", cited by the paper
// as a manuscript): a solution to X-STP(del) for the countable X of ALL
// finite sequences over a finite domain — beyond alpha(m) — that is
// correspondingly NOT bounded in the sense of Definition 2.
//
// The paper only tells us what it needs from [AFWZ89] (§5): the sender
// reads the whole input sequence and transmits the data items in REVERSE
// order, the receiver thereby learns a suffix, and the number of steps the
// receiver needs for the next data item depends on the history of the run
// (unboundedness). This package realizes those properties with a gated
// unary handshake (the substitution is recorded in DESIGN.md):
//
//	S sends x_n, then x_{n-1}, ..., then x_1, then an "end" marker — one
//	message at a time, sending the next only after an acknowledgement for
//	the previous arrived. R acknowledges every delivery and buffers the
//	arriving items; when "end" arrives it writes the whole sequence.
//
// Why this is safe in EVERY run of a del channel (which cannot duplicate
// or create messages): S has sent k+1 messages only if it received k
// acknowledgements; R sends one acknowledgement per delivery; so all k
// previous messages were delivered before message k+1 was even sent.
// Delivery order therefore equals send order despite reordering, and the
// buffer R holds at "end" is exactly x_n, ..., x_1.
//
// Liveness holds on the finite-delay-fair runs (every sent copy is
// eventually delivered — the fairness the paper itself adopts at the end
// of §3). If the adversary deletes a copy the protocol stalls, safely:
// with a single copy ever in flight, a deletion is an unfair run.
//
// Why it is unbounded (Definition 2): R knows no x_i — not even x_1 —
// until "end" arrives, because before that it cannot know how many items
// remain; so t_1 = ... = t_n = (time of "end"), and the number of steps to
// learn the next item from an arbitrary point grows with |X| rather than
// being bounded by any f(i). Experiment T6 measures exactly this.
//
// Restriction: this is a del/reorder-channel protocol. On dup channels
// the gating premise fails (replayed acknowledgements let S rush ahead of
// undelivered items), as it must: Theorem 1 says X-STP(dup) is unsolvable
// for this X. Experiments exercise it only on del and reorder links.
package afwz

import (
	"encoding/binary"
	"fmt"
	"strings"

	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/slab"
)

// ItemMsg encodes the reverse-order data message for item v.
func ItemMsg(v seq.Item) msg.Msg { return msg.Format("r", int(v)) }

// EndMsg is the end-of-sequence marker.
const EndMsg = msg.Msg("end")

// AckMsg is the receiver's (only) message.
const AckMsg = msg.Msg("ack")

// Sender message kinds, in declaration order.
const (
	kindItem = iota
	kindEnd
)

// Decl declares M^S = r:{m} + end and M^R = ack: |M^S| = m+1, |M^R| = 1.
func Decl(m int) msg.Decl {
	return msg.Decl{
		Sender:   msg.Kinds{msg.K("r", m), msg.K(string(EndMsg))},
		Receiver: msg.Kinds{msg.K(string(AckMsg))},
	}
}

// New returns the protocol spec for domain size m. X is every finite
// sequence over the domain; |M^S| = m+1, |M^R| = 1.
func New(m int) (protocol.Spec, error) {
	if m < 0 {
		return protocol.Spec{}, fmt.Errorf("afwz: negative domain size %d", m)
	}
	t := msg.TableFor(Decl(m))
	var (
		senders   slab.Slab[sender]
		receivers slab.Slab[receiver]
		items     slab.Slab[seq.Item]
	)
	return protocol.Spec{
		Name:        fmt.Sprintf("afwz(m=%d)", m),
		Description: "gated reverse-order transmission: all finite sequences, unbounded recovery",
		NewSender: func(input seq.Seq) (protocol.Sender, error) {
			for _, v := range input {
				if int(v) < 0 || int(v) >= m {
					return nil, fmt.Errorf("afwz: item %d outside domain of size %d", int(v), m)
				}
			}
			s := senders.New()
			*s = sender{t: t, input: items.Clone(input)}
			return s, nil
		},
		NewReceiver: func() (protocol.Receiver, error) {
			r := receivers.New()
			*r = receiver{m: m, t: t}
			return r, nil
		},
	}, nil
}

// MustNew is New for validated parameters; it panics on error.
func MustNew(m int) protocol.Spec {
	s, err := New(m)
	if err != nil {
		panic(err)
	}
	return s
}

// sender walks the input backwards, strictly gated on acknowledgements:
// message k+1 (0-based: the k-th reverse item, or "end" at k = n) is sent
// only while acks == k, and only once per run — a copy, once sent, is
// never re-sent, so at most one copy is ever in flight.
type sender struct {
	t     *msg.Table
	input seq.Seq
	acks  int  // acknowledgements received
	sent  int  // messages sent (acks <= sent <= acks+1)
	moved bool // the last Step moved acks or sent
}

var _ protocol.Sender = (*sender)(nil)

func (s *sender) Step(ev protocol.Event) []msg.Msg {
	s.moved = false
	switch ev.Kind {
	case protocol.Recv:
		if ev.Msg == AckMsg && s.acks < s.sent {
			s.acks++
			s.moved = true
		}
		return nil
	case protocol.Tick:
		if s.sent > s.acks || s.sent > len(s.input) {
			return nil // gate closed, or everything (incl. end) sent
		}
		k := s.sent
		s.sent++
		s.moved = true
		if k == len(s.input) {
			return s.t.S.Send(kindEnd, msg.Fields{})
		}
		// Reverse order: the k-th message carries x_{n-k} (1-based x).
		return s.t.S.Send(kindItem, msg.Fields{int(s.input[len(s.input)-1-k])})
	default:
		return nil
	}
}

func (s *sender) Moved() bool            { return s.moved }
func (s *sender) Alphabet() msg.Alphabet { return s.t.S.Alphabet() }

func (s *sender) Done() bool { return s.acks > len(s.input) }

func (s *sender) Clone() protocol.Sender {
	// The input tape is never mutated after construction, so clones share
	// it: the model checker clones on every explored transition.
	return &sender{t: s.t, input: s.input, acks: s.acks, sent: s.sent}
}

func (s *sender) Key() string { return fmt.Sprintf("afwzS{a=%d,s=%d}", s.acks, s.sent) }

func (s *sender) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'F')
	buf = binary.AppendUvarint(buf, uint64(s.acks))
	return binary.AppendUvarint(buf, uint64(s.sent))
}

// receiver buffers reverse-order arrivals and commits them on "end".
type receiver struct {
	m      int
	t      *msg.Table
	buffer seq.Seq // arrivals in order: x_n, x_{n-1}, ...
	done   bool
}

var _ protocol.Receiver = (*receiver)(nil)

func (r *receiver) Step(ev protocol.Event) ([]msg.Msg, seq.Seq) {
	if ev.Kind != protocol.Recv {
		return nil, nil
	}
	d, ok := r.t.S.Decode(ev.Msg)
	if !ok {
		return nil, nil // not in M^S
	}
	ack := r.t.R.Send(0, msg.Fields{})
	if r.done {
		return ack, nil
	}
	if d.Kind == kindItem {
		r.buffer = append(r.buffer, seq.Item(d.F[0]))
		return ack, nil
	}
	r.done = true
	// Commit: the buffer holds x_n .. x_1; write it reversed.
	out := make(seq.Seq, len(r.buffer))
	for i, v := range r.buffer {
		out[len(out)-1-i] = v
	}
	return ack, out
}

func (r *receiver) Alphabet() msg.Alphabet { return r.t.R.Alphabet() }

func (r *receiver) Clone() protocol.Receiver {
	return &receiver{m: r.m, t: r.t, buffer: r.buffer.Clone(), done: r.done}
}

func (r *receiver) Key() string {
	parts := make([]string, len(r.buffer))
	for i, v := range r.buffer {
		parts[i] = fmt.Sprintf("%d", int(v))
	}
	return fmt.Sprintf("afwzR{%s,done=%v}", strings.Join(parts, "."), r.done)
}

func (r *receiver) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'f')
	buf = r.buffer.EncodeKey(buf)
	return append(buf, boolByte(r.done))
}

// boolByte encodes a flag as a single key byte.
func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
