// Package stab implements a self-stabilizing STP variant in the style of
// Dolev–Dubois–Potop-Butucaru–Tixeuil (arXiv 1104.3947): a stabilizing
// data-link protocol over bounded-capacity unreliable channels. Unlike
// every other protocol in the zoo, its correctness claim quantifies over
// *arbitrary initial states*: start the sender, the receiver, and the
// channel in any corrupted configuration and the write suffix eventually
// becomes a contiguous suffix of X.
//
// The mechanism is bounded-counter resynchronization. Assume at most c
// stale copies can survive in each channel direction (the capacity bound;
// the paper's del/reorder/FIFO channels seeded with at most c junk
// messages satisfy it, an unboundedly-duplicating channel does not — and
// indeed no protocol stabilizes there, which the model checker's
// stabilization mode confirms with a lasso witness). Then:
//
//   - the receiver accepts a value only after c+1 copies of it arrive
//     while it is the current candidate: at most c of those can be stale,
//     so at least one was sent by the sender recently;
//   - the sender advances only after c+1 acknowledgements of the current
//     item: at least one is fresh, so the receiver really has accepted it;
//   - inputs are restricted to repetition-free sequences, so a value
//     identifies its position in X and "continue the suffix" is
//     unambiguous after any corruption.
//
// From an arbitrary state the damage is bounded: a scrambled counter can
// force at most one spurious acceptance, after which every further
// acceptance consumes c+1 copies of a value, and stale copies are never
// replenished. The suffix of writes is prefix-safe after finitely many
// steps — the stabilization time the checker measures.
package stab

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

// DefaultCapacity is the channel-capacity bound c assumed when the
// constructor is given 0: acceptance thresholds are c+1.
const DefaultCapacity = 2

// New returns the stabilizing protocol spec for domain size m under
// channel-capacity bound c (0 selects DefaultCapacity). The allowable
// input set X is the repetition-free sequences over the domain — the same
// restriction the paper's tight protocol lives with, and what makes
// resynchronization after corruption unambiguous.
func New(m, c int) (protocol.Spec, error) {
	if m < 0 {
		return protocol.Spec{}, fmt.Errorf("stab: negative domain size %d", m)
	}
	if c < 0 {
		return protocol.Spec{}, fmt.Errorf("stab: negative capacity bound %d", c)
	}
	if c == 0 {
		c = DefaultCapacity
	}
	cc := c
	t := msg.TableFor(alphaproto.Decl(m))
	var (
		senders   slab.Slab[sender]
		receivers slab.Slab[receiver]
		items     slab.Slab[seq.Item]
	)
	return protocol.Spec{
		Name:        fmt.Sprintf("stab(m=%d,c=%d)", m, cc),
		Description: "self-stabilizing bounded-counter resynchronization [DDPT, arXiv 1104.3947]",
		NewSender: func(input seq.Seq) (protocol.Sender, error) {
			if input.HasRepetition() {
				return nil, fmt.Errorf("stab: input %s has repetitions (X is the repetition-free set)", input)
			}
			for _, v := range input {
				if int(v) < 0 || int(v) >= m {
					return nil, fmt.Errorf("stab: item %d outside domain of size %d", int(v), m)
				}
			}
			s := senders.New()
			*s = sender{c: cc, t: t, input: items.Clone(input)}
			return s, nil
		},
		NewReceiver: func() (protocol.Receiver, error) {
			r := receivers.New()
			*r = receiver{m: m, c: cc, t: t}
			return r, nil
		},
	}, nil
}

// sender retransmits input[idx] each tick and advances after c+1
// acknowledgements of it: at most c acknowledgements can be stale, so the
// (c+1)-th proves the receiver currently holds input[idx] as its latest
// accepted value.
type sender struct {
	c     int
	t     *msg.Table
	input seq.Seq
	idx   int  // next item to deliver; len(input) when done
	acks  int  // matching acknowledgements accumulated for input[idx]
	moved bool // the last Step moved idx or acks
}

var _ protocol.Sender = (*sender)(nil)
var _ protocol.Scrambler = (*sender)(nil)

func (s *sender) Step(ev protocol.Event) []msg.Msg {
	s.moved = false
	switch ev.Kind {
	case protocol.Recv:
		if s.idx < len(s.input) && ev.Msg == s.t.R.Msg(0, msg.Fields{int(s.input[s.idx])}) {
			s.moved = true // acks+1, or idx+1 with acks reset
			s.acks++
			if s.acks >= s.c+1 {
				s.idx++
				s.acks = 0
			}
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

func (s *sender) Moved() bool            { return s.moved }
func (s *sender) Alphabet() msg.Alphabet { return s.t.S.Alphabet() }

func (s *sender) Done() bool { return s.idx >= len(s.input) }

func (s *sender) Clone() protocol.Sender {
	// The input tape is never mutated after construction, so clones share it.
	return &sender{c: s.c, t: s.t, input: s.input, idx: s.idx, acks: s.acks}
}

func (s *sender) Key() string { return fmt.Sprintf("stabS{idx=%d,acks=%d}", s.idx, s.acks) }

func (s *sender) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'Z')
	buf = binary.AppendUvarint(buf, uint64(s.idx))
	return binary.AppendUvarint(buf, uint64(s.acks))
}

// Scramble implements protocol.Scrambler: position and counter land
// anywhere in their type-valid ranges.
func (s *sender) Scramble(rng *rand.Rand) {
	s.idx = rng.Intn(len(s.input) + 1)
	s.acks = rng.Intn(s.c + 1)
}

// receiver counts copies of a candidate value and accepts after c+1,
// acknowledging only values it has accepted (so the sender's counter
// measures genuine acceptances, not echoes).
type receiver struct {
	m, c int
	t    *msg.Table
	have bool        // an accepted value exists
	last seq.Item    // most recently accepted (and written) value
	cand seq.Item    // candidate being counted; meaningful when cnt > 0
	cnt  int         // consecutive-candidate copies seen
	w    [1]seq.Item // the one-item tape Step returns
}

var _ protocol.Receiver = (*receiver)(nil)
var _ protocol.Scrambler = (*receiver)(nil)

func (r *receiver) Step(ev protocol.Event) ([]msg.Msg, seq.Seq) {
	if ev.Kind != protocol.Recv {
		return nil, nil
	}
	d, ok := r.t.S.Decode(ev.Msg)
	if !ok {
		return nil, nil // not in M^S
	}
	item := seq.Item(d.F[0])
	if r.have && item == r.last {
		// Retransmission of the accepted value: re-acknowledge, the
		// sender may still be collecting its c+1 acks.
		return r.t.R.Send(0, d.F), nil
	}
	if r.cnt > 0 && item == r.cand {
		r.cnt++
	} else {
		r.cand, r.cnt = item, 1
	}
	if r.cnt >= r.c+1 {
		r.have, r.last = true, item
		r.cnt = 0
		r.w[0] = item
		return r.t.R.Send(0, d.F), r.w[:]
	}
	return nil, nil
}

func (r *receiver) Alphabet() msg.Alphabet { return r.t.R.Alphabet() }

func (r *receiver) Clone() protocol.Receiver {
	cp := *r
	return &cp
}

func (r *receiver) Key() string {
	h := 0
	if r.have {
		h = 1
	}
	return fmt.Sprintf("stabR{have=%d,last=%d,cand=%d,cnt=%d}", h, int(r.last), int(r.cand), r.cnt)
}

func (r *receiver) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'z')
	h := byte(0)
	if r.have {
		h = 1
	}
	buf = append(buf, h)
	buf = binary.AppendUvarint(buf, uint64(int(r.last)))
	buf = binary.AppendUvarint(buf, uint64(int(r.cand)))
	return binary.AppendUvarint(buf, uint64(r.cnt))
}

// Scramble implements protocol.Scrambler: every field lands anywhere in
// its type-valid range, including counter values one arrival away from a
// spurious acceptance — the worst transient fault the theory allows.
func (r *receiver) Scramble(rng *rand.Rand) {
	r.have = rng.Intn(2) == 1
	if r.m > 0 {
		r.last = seq.Item(rng.Intn(r.m))
		r.cand = seq.Item(rng.Intn(r.m))
	}
	r.cnt = rng.Intn(r.c + 1)
}
