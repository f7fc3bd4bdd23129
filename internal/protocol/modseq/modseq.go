// Package modseq implements the paper's §6 outlook — "it is conceivable
// that we sometimes can be satisfied with 'solutions' to X-STP with
// |X| > alpha(m) that, although having the POSSIBILITY of failure,
// present an acceptably low PROBABILITY of failure" — as a concrete
// protocol: Stenning's scheme with sequence numbers reduced modulo a
// window M.
//
// The alphabet is finite (M·|D| data messages + M acknowledgements), and
// the allowable X is every sequence over D — far beyond alpha(m). By
// Theorem 1/2 this cannot be safe in every run, and indeed the product
// model checker exhibits the failure: a stale data message whose position
// collides modulo M with the receiver's expectation is accepted as
// current (experiment T9 prints the witness). But against a RANDOM
// channel rather than an adversarial one, a collision requires a stale
// copy to survive M full protocol rounds, so the failure probability
// decays rapidly with M — which T9 measures by Monte Carlo.
//
// This is exactly the trade the paper's conclusion anticipates: pay
// alphabet (M times more messages) to push the failure probability down,
// without ever reaching the impossible zero.
package modseq

import (
	"encoding/binary"
	"fmt"

	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/slab"
)

// DataMsg encodes item v at position i, reduced modulo the window.
func DataMsg(window, i int, v seq.Item) msg.Msg { return msg.Format("d", i%window, int(v)) }

// AckMsg encodes the acknowledgement for position i modulo the window.
func AckMsg(window, i int) msg.Msg { return msg.Format("a", i%window) }

// Decl declares M^S = d:{M}:{m} and M^R = a:{M} for window M:
// |M^S| = M·m, |M^R| = M.
func Decl(m, window int) msg.Decl {
	return msg.Decl{Sender: msg.Kinds{msg.K("d", window, m)}, Receiver: msg.Kinds{msg.K("a", window)}}
}

// New returns the protocol spec for domain size m and sequence-number
// window M >= 1. |M^S| = M·m, |M^R| = M. Window 1 degenerates to the
// naive write-everything protocol; window 2 is ABP-with-value-payloads.
func New(m, window int) (protocol.Spec, error) {
	if m < 0 {
		return protocol.Spec{}, fmt.Errorf("modseq: negative domain size %d", m)
	}
	if window < 1 {
		return protocol.Spec{}, fmt.Errorf("modseq: window %d < 1", window)
	}
	t := msg.TableFor(Decl(m, window))
	var (
		senders   slab.Slab[sender]
		receivers slab.Slab[receiver]
		items     slab.Slab[seq.Item]
	)
	return protocol.Spec{
		Name:        fmt.Sprintf("modseq(m=%d,M=%d)", m, window),
		Description: "Stenning with sequence numbers mod M: probabilistic STP (§6 outlook)",
		NewSender: func(input seq.Seq) (protocol.Sender, error) {
			for _, v := range input {
				if int(v) < 0 || int(v) >= m {
					return nil, fmt.Errorf("modseq: item %d outside domain of size %d", int(v), m)
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

// sender retransmits the lowest unacknowledged position each tick,
// advancing on an acknowledgement that matches it modulo the window.
type sender struct {
	window int
	t      *msg.Table
	input  seq.Seq
	next   int
	moved  bool // the last Step moved next
}

var _ protocol.Sender = (*sender)(nil)

func (s *sender) Step(ev protocol.Event) []msg.Msg {
	s.moved = false
	switch ev.Kind {
	case protocol.Recv:
		if s.next < len(s.input) && ev.Msg == s.t.R.Msg(0, msg.Fields{s.next % s.window}) {
			s.next++
			s.moved = true
		}
		return nil
	case protocol.Tick:
		if s.next < len(s.input) {
			return s.t.S.Send(0, msg.Fields{s.next % s.window, int(s.input[s.next])})
		}
		return nil
	default:
		return nil
	}
}

func (s *sender) Moved() bool            { return s.moved }
func (s *sender) Alphabet() msg.Alphabet { return s.t.S.Alphabet() }

func (s *sender) Done() bool { return s.next >= len(s.input) }

func (s *sender) Clone() protocol.Sender {
	// The input tape is never mutated after construction, so the clone
	// shares it: the model checker clones on every explored transition.
	cp := *s
	return &cp
}

func (s *sender) Key() string { return fmt.Sprintf("modseqS{%d}", s.next) }

func (s *sender) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'M')
	return binary.AppendUvarint(buf, uint64(s.next))
}

// receiver writes a data message whose number matches its expectation
// modulo the window; anything else is re-acknowledged as stale. The
// soundness hole (by design): a stale copy from M positions ago matches.
type receiver struct {
	window int
	t      *msg.Table
	next   int
	w      [1]seq.Item // the one-item tape Step returns
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
	i, v := d.F[0], d.F[1]
	ack := r.t.R.Send(0, msg.Fields{i})
	if i == r.next%r.window {
		r.next++
		r.w[0] = seq.Item(v)
		return ack, r.w[:]
	}
	// Stale (mod-window) retransmission: re-acknowledge it so the sender
	// can advance past a lost acknowledgement.
	return ack, nil
}

func (r *receiver) Alphabet() msg.Alphabet { return r.t.R.Alphabet() }

func (r *receiver) Clone() protocol.Receiver {
	cp := *r
	return &cp
}

func (r *receiver) Key() string { return fmt.Sprintf("modseqR{%d}", r.next) }

func (r *receiver) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'm')
	return binary.AppendUvarint(buf, uint64(r.next))
}
