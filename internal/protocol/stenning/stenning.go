// Package stenning implements Stenning's data transfer protocol [Ste76]:
// every data message carries an unbounded sequence number, the receiver
// writes messages in sequence-number order, and acknowledgements echo the
// number. It solves STP for every sequence over any domain, on every
// channel model — dup, del, reorder, FIFO — precisely because it abandons
// the paper's central resource bound: its message alphabet is infinite.
//
// It is the baseline that locates the difficulty: Theorems 1 and 2 say
// that with |M^S| = m finite you can distinguish at most alpha(m) input
// sequences; unbounded headers make |M^S| infinite and the problem
// trivial. The package exists so experiments can show the contrast.
package stenning

import (
	"encoding/binary"
	"fmt"

	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/slab"
)

// dataMsg encodes item v at position i (0-based).
func dataMsg(i int, v seq.Item) msg.Msg { return msg.Format("d", i, int(v)) }

// ackMsg encodes the acknowledgement for position i.
func ackMsg(i int) msg.Msg { return msg.Format("a", i) }

// internMax bounds the receiver's dynamic decode cache. Stenning's
// alphabet is unbounded, so it cannot be declared and enumerated like
// the finite ones, and the wire mux, which has no alphabet to check
// payloads against, hands Step whatever bytes arrive. The receiver
// therefore parses, with the strict msg.Parse (M^S is exactly the
// strings msg.Format produces), and interns decodes as they arrive, up
// to this many distinct encodings; past the bound every message is
// parsed afresh.
const internMax = 4096

// New returns the protocol spec. There is no domain-size parameter: the
// sequence-number scheme carries any items whatsoever.
func New() protocol.Spec {
	var (
		senders   slab.Slab[sender]
		receivers slab.Slab[receiver]
		items     slab.Slab[seq.Item]
	)
	return protocol.Spec{
		Name:        "stenning",
		Description: "unbounded sequence numbers [Ste76]: trivially correct, infinite alphabet",
		NewSender: func(input seq.Seq) (protocol.Sender, error) {
			s := senders.New()
			*s = sender{input: items.Clone(input)}
			return s, nil
		},
		NewReceiver: func() (protocol.Receiver, error) {
			return receivers.New(), nil
		},
	}
}

// sender retransmits the lowest unacknowledged item each tick.
type sender struct {
	input seq.Seq
	next  int // lowest unacknowledged position

	// Dynamic intern of the current position's frame and expected ack:
	// rebuilt once per advance, so the steady retransmit/ack-compare
	// cycle formats nothing. The cached values are replaced, never
	// mutated, so Clone's value copy safely shares them.
	curSend []msg.Msg // {"d:next:v"}; valid iff non-nil and curFor == next
	curFor  int
	ackWait msg.Msg // "a:next"; valid iff non-empty and ackFor == next
	ackFor  int

	moved bool // the last Step moved next (the caches are not state)
}

var _ protocol.Sender = (*sender)(nil)

func (s *sender) Step(ev protocol.Event) []msg.Msg {
	s.moved = false
	switch ev.Kind {
	case protocol.Recv:
		if s.ackWait == "" || s.ackFor != s.next {
			s.ackWait = ackMsg(s.next)
			s.ackFor = s.next
		}
		// M^R is exactly the strings ackMsg produces, so the one
		// acknowledgement that advances S is recognised by comparison.
		if ev.Msg == s.ackWait {
			s.next++
			s.moved = true
		}
		return nil
	case protocol.Tick:
		if s.next < len(s.input) {
			if s.curSend == nil || s.curFor != s.next {
				s.curSend = []msg.Msg{dataMsg(s.next, s.input[s.next])}
				s.curFor = s.next
			}
			return s.curSend
		}
		return nil
	default:
		return nil
	}
}

func (s *sender) Moved() bool { return s.moved }

// Alphabet declares unboundedness by returning the empty alphabet.
func (s *sender) Alphabet() msg.Alphabet { return msg.Alphabet{} }

func (s *sender) Done() bool { return s.next >= len(s.input) }

func (s *sender) Clone() protocol.Sender {
	// The input tape is never mutated after construction, so clones share
	// it: the model checker clones on every explored transition.
	return &sender{input: s.input, next: s.next}
}

func (s *sender) Key() string { return fmt.Sprintf("stenS{%d}", s.next) }

func (s *sender) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'T')
	return binary.AppendUvarint(buf, uint64(s.next))
}

// decoded is a cached parse of a data message, with the interned ack
// send slice and write singleton for its position and value.
type decoded struct {
	i       int
	ackSend []msg.Msg
	write   seq.Seq
}

// receiver writes position next when it arrives; every receipt of a
// position <= next is acknowledged (re-acks repair lost acknowledgements).
type receiver struct {
	next int // number of items written

	// cache dynamically interns decodes (bounded by internMax). Not
	// part of behavioural state (Key ignores it), and nil'd on Clone so
	// model-checker workers never share the map.
	cache map[msg.Msg]decoded
}

var _ protocol.Receiver = (*receiver)(nil)

func (r *receiver) Step(ev protocol.Event) ([]msg.Msg, seq.Seq) {
	if ev.Kind != protocol.Recv {
		return nil, nil
	}
	d, ok := r.cache[ev.Msg]
	if !ok {
		var f msg.Fields
		if !msg.Parse(ev.Msg, "d", f[:]) {
			return nil, nil // not in M^S
		}
		d = decoded{i: f[0], ackSend: []msg.Msg{ackMsg(f[0])}, write: seq.Seq{seq.Item(f[1])}}
		if len(r.cache) < internMax {
			if r.cache == nil {
				r.cache = make(map[msg.Msg]decoded)
			}
			r.cache[ev.Msg] = d
		}
	}
	switch {
	case d.i == r.next:
		r.next++
		return d.ackSend, d.write
	case d.i < r.next:
		// Stale retransmission: re-acknowledge so the sender advances.
		return d.ackSend, nil
	default:
		// Out-of-order future message (reordering): ignore; the sender
		// will retransmit once earlier items are acknowledged.
		return nil, nil
	}
}

// Alphabet declares unboundedness by returning the empty alphabet.
func (r *receiver) Alphabet() msg.Alphabet { return msg.Alphabet{} }

func (r *receiver) Clone() protocol.Receiver {
	cp := *r
	cp.cache = nil
	return &cp
}

func (r *receiver) Key() string { return fmt.Sprintf("stenR{%d}", r.next) }

func (r *receiver) EncodeKey(buf []byte) []byte {
	buf = append(buf, 't')
	return binary.AppendUvarint(buf, uint64(r.next))
}
