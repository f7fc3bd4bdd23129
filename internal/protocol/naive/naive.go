// Package naive implements deliberately unsound protocols: the natural
// attempts a designer might make at solving X-STP for sets X larger than
// alpha(m). They are the concrete victims for the impossibility
// experiments (T3, T5): Theorems 1 and 2 say every such attempt must fail,
// and the model checker exhibits the failing runs.
package naive

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/protocol/alphaproto"
	"seqtx/internal/seq"
	"seqtx/internal/slab"
)

// NewWriteEveryData returns the "trusting" protocol over domain size m:
// identical to the paper's tight protocol except that the receiver writes
// the value of every data message it receives, instead of only
// never-before-seen values, and the sender accepts inputs with repeated
// items. Its X is every sequence over D, so |X| > alpha(m) as soon as
// lengths exceed m — and indeed a duplicating (or retransmitting-on-del)
// channel makes R write spurious copies: a safety violation.
func NewWriteEveryData(m int) (protocol.Spec, error) {
	if m < 0 {
		return protocol.Spec{}, fmt.Errorf("naive: negative domain size %d", m)
	}
	t := msg.TableFor(alphaproto.Decl(m))
	var (
		senders   slab.Slab[posSender]
		receivers slab.Slab[trustingReceiver]
		items     slab.Slab[seq.Item]
	)
	return protocol.Spec{
		Name:        fmt.Sprintf("naive-write-every(m=%d)", m),
		Description: "tight protocol minus duplicate suppression: unsafe under duplication",
		NewSender: func(input seq.Seq) (protocol.Sender, error) {
			for _, v := range input {
				if int(v) < 0 || int(v) >= m {
					return nil, fmt.Errorf("naive: item %d outside domain of size %d", int(v), m)
				}
			}
			s := senders.New()
			*s = posSender{t: t, input: items.Clone(input)}
			return s, nil
		},
		NewReceiver: func() (protocol.Receiver, error) {
			r := receivers.New()
			*r = trustingReceiver{t: t}
			return r, nil
		},
	}, nil
}

// posSender transmits input[idx] until a matching-value ack arrives. With
// repeated items in X the value ack is ambiguous — which is precisely the
// ambiguity the paper's bound formalizes.
type posSender struct {
	t     *msg.Table
	input seq.Seq
	idx   int
	moved bool // the last Step moved idx
}

var _ protocol.Sender = (*posSender)(nil)

func (s *posSender) Step(ev protocol.Event) []msg.Msg {
	s.moved = false
	switch ev.Kind {
	case protocol.Recv:
		if s.idx < len(s.input) && ev.Msg == s.t.R.Msg(0, msg.Fields{int(s.input[s.idx])}) {
			s.idx++
			s.moved = true
		}
		return nil
	case protocol.Tick:
		if s.idx < len(s.input) {
			return s.t.S.Send(0, msg.Fields{int(s.input[s.idx])})
		}
		return nil
	default:
		return nil
	}
}

func (s *posSender) Moved() bool            { return s.moved }
func (s *posSender) Alphabet() msg.Alphabet { return s.t.S.Alphabet() }

func (s *posSender) Done() bool { return s.idx >= len(s.input) }

func (s *posSender) Clone() protocol.Sender {
	// The input tape is never mutated after construction, so clones share
	// it: the model checker clones on every explored transition.
	return &posSender{t: s.t, input: s.input, idx: s.idx}
}

func (s *posSender) Key() string { return fmt.Sprintf("naiveS{idx=%d}", s.idx) }

func (s *posSender) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'N')
	return binary.AppendUvarint(buf, uint64(s.idx))
}

// Scramble implements protocol.Scrambler.
func (s *posSender) Scramble(rng *rand.Rand) {
	s.idx = rng.Intn(len(s.input) + 1)
}

// trustingReceiver writes every data message's value on receipt.
type trustingReceiver struct {
	t       *msg.Table
	written int
	w       [1]seq.Item // the one-item tape Step returns
}

var _ protocol.Receiver = (*trustingReceiver)(nil)

func (r *trustingReceiver) Step(ev protocol.Event) ([]msg.Msg, seq.Seq) {
	if ev.Kind != protocol.Recv {
		return nil, nil
	}
	d, ok := r.t.S.Decode(ev.Msg)
	if !ok {
		return nil, nil // not in M^S
	}
	r.written++
	r.w[0] = seq.Item(d.F[0])
	return r.t.R.Send(0, d.F), r.w[:]
}

func (r *trustingReceiver) Alphabet() msg.Alphabet { return r.t.R.Alphabet() }

func (r *trustingReceiver) Clone() protocol.Receiver {
	cp := *r
	return &cp
}

// Key is constant: Step never reads written, so every trusting-receiver
// state is behaviourally identical. (The write count is recoverable from
// |Y|, which global state keys track separately; the constant key is what
// lets the stabilization checker close its recurrence analysis and
// exhibit the protocol's unbounded junk-writing as a lasso.)
func (r *trustingReceiver) Key() string { return "naiveR{}" }

func (r *trustingReceiver) EncodeKey(buf []byte) []byte {
	return append(buf, 'n')
}

// Scramble implements protocol.Scrambler: the trusting receiver keeps no
// behaviourally meaningful state, so an arbitrary restart state is the
// initial state. Implementing the hook records that explicitly.
func (r *trustingReceiver) Scramble(*rand.Rand) {}

// NewFlood returns the ack-free protocol over domain size m: the sender
// just emits each item once per tick position with no feedback channel at
// all. Unsafe under reordering even without duplication — the receiver
// has no way to recover the order.
func NewFlood(m int) (protocol.Spec, error) {
	if m < 0 {
		return protocol.Spec{}, fmt.Errorf("naive: negative domain size %d", m)
	}
	t := msg.TableFor(alphaproto.Decl(m))
	var (
		senders   slab.Slab[floodSender]
		receivers slab.Slab[trustingReceiver]
		items     slab.Slab[seq.Item]
	)
	return protocol.Spec{
		Name:        fmt.Sprintf("naive-flood(m=%d)", m),
		Description: "no acknowledgements: sender streams, receiver writes arrivals",
		NewSender: func(input seq.Seq) (protocol.Sender, error) {
			for _, v := range input {
				if int(v) < 0 || int(v) >= m {
					return nil, fmt.Errorf("naive: item %d outside domain of size %d", int(v), m)
				}
			}
			s := senders.New()
			*s = floodSender{t: t, input: items.Clone(input)}
			return s, nil
		},
		NewReceiver: func() (protocol.Receiver, error) {
			r := receivers.New()
			*r = trustingReceiver{t: t}
			return r, nil
		},
	}, nil
}

// floodSender sends the next item on each tick, never waiting.
type floodSender struct {
	t     *msg.Table
	input seq.Seq
	idx   int
	moved bool // the last Step moved idx
}

var _ protocol.Sender = (*floodSender)(nil)

func (s *floodSender) Step(ev protocol.Event) []msg.Msg {
	s.moved = ev.Kind == protocol.Tick && s.idx < len(s.input)
	if !s.moved {
		return nil
	}
	m := s.t.S.Send(0, msg.Fields{int(s.input[s.idx])})
	s.idx++
	return m
}

func (s *floodSender) Moved() bool            { return s.moved }
func (s *floodSender) Alphabet() msg.Alphabet { return s.t.S.Alphabet() }

func (s *floodSender) Done() bool { return s.idx >= len(s.input) }

func (s *floodSender) Clone() protocol.Sender {
	// The input tape is never mutated after construction, so clones share
	// it: the model checker clones on every explored transition.
	return &floodSender{t: s.t, input: s.input, idx: s.idx}
}

func (s *floodSender) Key() string { return fmt.Sprintf("floodS{idx=%d}", s.idx) }

func (s *floodSender) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'O')
	return binary.AppendUvarint(buf, uint64(s.idx))
}

// Scramble implements protocol.Scrambler.
func (s *floodSender) Scramble(rng *rand.Rand) {
	s.idx = rng.Intn(len(s.input) + 1)
}
