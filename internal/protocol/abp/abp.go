// Package abp implements the alternating-bit protocol ([BSW69]; the "ABP"
// of the paper's §5): stop-and-wait with a one-bit header, retransmitting
// on every spontaneous step. Its guarantees are channel-dependent, which
// is exactly why the paper uses it:
//
//   - On a FIFO channel with loss and duplication it solves STP for every
//     sequence: the bit distinguishes "new item" from "retransmission".
//   - Under reordering it is unsafe: a stale data message whose bit
//     happens to match the receiver's expectation is accepted as new.
//     Experiment T7 exhibits the violating run found by the model checker.
//
// Message alphabets are finite but the solvable X (on FIFO) is infinite —
// no contradiction with Theorem 1/2, whose channels reorder.
package abp

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/slab"
)

// DataMsg encodes item v under alternating bit b.
func DataMsg(b int, v seq.Item) msg.Msg { return msg.Format("b", b&1, int(v)) }

// AckMsg encodes the acknowledgement for bit b.
func AckMsg(b int) msg.Msg { return msg.Format("k", b&1) }

// Decl declares M^S = b:{2}:{m} and M^R = k:{2}: |M^S| = 2m, |M^R| = 2.
func Decl(m int) msg.Decl {
	return msg.Decl{Sender: msg.Kinds{msg.K("b", 2, m)}, Receiver: msg.Kinds{msg.K("k", 2)}}
}

// New returns the protocol spec for domain size m.
func New(m int) (protocol.Spec, error) {
	if m < 0 {
		return protocol.Spec{}, fmt.Errorf("abp: negative domain size %d", m)
	}
	t := msg.TableFor(Decl(m))
	var (
		senders   slab.Slab[sender]
		receivers slab.Slab[receiver]
		items     slab.Slab[seq.Item]
	)
	return protocol.Spec{
		Name:        fmt.Sprintf("abp(m=%d)", m),
		Description: "alternating-bit stop-and-wait; safe on FIFO, unsafe under reordering",
		NewSender: func(input seq.Seq) (protocol.Sender, error) {
			for _, v := range input {
				if int(v) < 0 || int(v) >= m {
					return nil, fmt.Errorf("abp: item %d outside domain of size %d", int(v), m)
				}
			}
			s := senders.New()
			*s = sender{t: t, input: items.Clone(input)}
			return s, nil
		},
		NewReceiver: func() (protocol.Receiver, error) {
			r := receivers.New()
			*r = receiver{t: t}
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

// sender transmits input[idx] under bit idx%2, retransmitting each tick,
// advancing on the matching acknowledgement.
type sender struct {
	t     *msg.Table
	input seq.Seq
	idx   int
	moved bool // the last Step moved idx
}

var _ protocol.Sender = (*sender)(nil)

func (s *sender) Step(ev protocol.Event) []msg.Msg {
	s.moved = false
	switch ev.Kind {
	case protocol.Recv:
		if s.idx < len(s.input) && ev.Msg == s.t.R.Msg(0, msg.Fields{s.idx & 1}) {
			s.idx++
			s.moved = true
		}
		return nil
	case protocol.Tick:
		if s.idx < len(s.input) {
			return s.t.S.Send(0, msg.Fields{s.idx & 1, int(s.input[s.idx])})
		}
		return nil
	default:
		return nil
	}
}

func (s *sender) Moved() bool            { return s.moved }
func (s *sender) Alphabet() msg.Alphabet { return s.t.S.Alphabet() }

func (s *sender) Done() bool { return s.idx >= len(s.input) }

func (s *sender) Clone() protocol.Sender {
	// The input tape is never mutated after construction, so clones share
	// it: the model checker clones on every explored transition.
	return &sender{t: s.t, input: s.input, idx: s.idx}
}

func (s *sender) Key() string { return fmt.Sprintf("abpS{%d}", s.idx) }

func (s *sender) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'B')
	return binary.AppendUvarint(buf, uint64(s.idx))
}

// Scramble implements protocol.Scrambler: the position lands anywhere in
// [0, len(input)] — the only field ABP's sender has.
func (s *sender) Scramble(rng *rand.Rand) {
	s.idx = rng.Intn(len(s.input) + 1)
}

// receiver accepts data whose bit matches its expectation, acknowledging
// every data message with the bit it carried.
type receiver struct {
	t       *msg.Table
	written int
	w       [1]seq.Item // the one-item tape Step returns
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
	b, v := d.F[0], d.F[1]
	ack := r.t.R.Send(0, msg.Fields{b})
	if b == r.written&1 {
		r.written++
		r.w[0] = seq.Item(v)
		return ack, r.w[:]
	}
	// Retransmission of the previous item: re-acknowledge its bit.
	return ack, nil
}

func (r *receiver) Alphabet() msg.Alphabet { return r.t.R.Alphabet() }

func (r *receiver) Clone() protocol.Receiver {
	cp := *r
	return &cp
}

// Key quotients the state to the expected bit: Step reads written only
// as written&1, so states of equal parity are behaviourally identical.
// (The write count itself is recoverable from |Y|, which every global
// state key tracks separately — the quotient merges nothing at the world
// level; it matters to the stabilization checker, whose recurrence
// analysis needs behavioural state to be finite.)
func (r *receiver) Key() string { return fmt.Sprintf("abpR{%d}", r.written&1) }

func (r *receiver) EncodeKey(buf []byte) []byte {
	return append(buf, 'b', byte(r.written&1))
}

// Scramble implements protocol.Scrambler: the expected bit flips or not.
func (r *receiver) Scramble(rng *rand.Rand) {
	r.written = rng.Intn(2)
}
