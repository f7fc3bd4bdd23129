// Package hybrid implements the protocol sketched in the paper's §5: the
// weakly-bounded-but-unbounded solution to STP for all finite sequences,
// used to argue that weak boundedness ([LMF88]-style) admits protocols
// that "never fully recover from faults" and hence to motivate the
// stronger Definition 2.
//
// Quoting §5: "S transmits the data items in sequence and R writes and
// acknowledges them using an Alternating Bit protocol (ABP), until one of
// the processors fails to receive a message in time. (We are assuming
// here some global clock and known message delivery times.) This
// processor then starts to execute the [AFWZ89] protocol, using a
// different message alphabet ... S reads the whole input sequence and
// transmits the data items in reverse order. Thus, after having learnt
// some prefix of the sequence, R starts to learn some of its suffix. If
// the old lost message is delivered, the processors resume executions of
// the original protocol. Thus, the processors alternate ... until S sends
// a special message indicating to R that the prefix and the suffix learnt
// consist of the whole sequence."
//
// The channel is the paper's reordering, deleting link. That forces the
// defining design constraint: NO data message is ever retransmitted.
// On a reordering channel a retransmitted alternating-bit frame is the
// classic stale-copy hazard (experiment T7 exhibits it), so both streams
// send every copy exactly once, gated on acknowledgements — which is
// precisely why a genuine loss cannot be repaired in place and recovery
// must go the long way around, making the protocol unbounded:
//
//   - prefix stream (the ABP of §5): items x_1, x_2, ... forward, one in
//     flight, alternating bits, advancing on the matching ack. A timeout
//     ("fails to receive a message in time") switches S to the suffix
//     stream; a late ack ("the old lost message is delivered") switches
//     it back.
//   - suffix stream (the [AFWZ89] phase): items x_n, x_{n-1}, ... in
//     reverse order under a disjoint alphabet, same single-copy gating.
//     R buffers them: it "learns a suffix".
//   - the two streams may overlap in at most one position (each stream
//     refuses to move once the covered regions touch, except that either
//     may take the single boundary item the other has in flight — that is
//     what lets a lost copy be covered from the other side). When
//     acknowledged prefix + suffix cover the input, S repeatedly sends
//     the §5 completeness message "fin", which carries one bit: the
//     parity of |X|. From it R resolves the 0-or-1 overlap between its
//     written prefix and its buffered suffix and commits the tail.
//
// Guarantees (experiment T8 measures them):
//
//   - Safety in every run: single-copy gating makes each stream's arrival
//     order equal its send order despite reordering, and the fin parity
//     makes the commit exact.
//   - Liveness on finite-delay-fair runs (every copy eventually
//     delivered), with tolerance for one deletion: the surviving stream
//     covers the lost position from the other side.
//   - Weakly bounded: from every t_i point there is an extension, using
//     the in-flight (old) messages, in which R learns the next item in a
//     constant number of steps.
//   - NOT bounded (Definition 2): from a point whose in-flight copy is
//     barred (fresh messages only — the long-lost-message clause), the
//     only road to the next write is the whole remaining suffix plus fin,
//     so recovery grows with |X| and no f(i) bounds it.
package hybrid

import (
	"encoding/binary"
	"fmt"

	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/slab"
)

// PrefixMsg encodes the forward (ABP) data message: item v under bit b.
func PrefixMsg(b int, v seq.Item) msg.Msg { return msg.Format("p", b&1, int(v)) }

// SuffixAck acknowledges a backward data message by bit.
func SuffixAck(b int) msg.Msg { return msg.Format("sk", b&1) }

// FinAck acknowledges fin.
const FinAck = msg.Msg("fk")

// DefaultTimeout is the default number of sender ticks waiting for an
// acknowledgement before the sender assumes a loss and switches streams.
const DefaultTimeout = 8

// Message kinds, in declaration order: the sender's data stream and the
// receiver's acknowledgement of it share an index.
const (
	kindPrefix = iota
	kindSuffix
	kindFin
)

// Decl declares M^S = p:{2}:{m} + s:{2}:{m} + fin:{2} and
// M^R = pk:{2} + sk:{2} + fk: |M^S| = 4m+2, |M^R| = 5.
func Decl(m int) msg.Decl {
	return msg.Decl{
		Sender:   msg.Kinds{msg.K("p", 2, m), msg.K("s", 2, m), msg.K("fin", 2)},
		Receiver: msg.Kinds{msg.K("pk", 2), msg.K("sk", 2), msg.K(string(FinAck))},
	}
}

// New returns the protocol spec for domain size m with the given timeout
// (ticks without progress before a phase switch; >= 1).
func New(m, timeout int) (protocol.Spec, error) {
	if m < 0 {
		return protocol.Spec{}, fmt.Errorf("hybrid: negative domain size %d", m)
	}
	if timeout < 1 {
		return protocol.Spec{}, fmt.Errorf("hybrid: timeout %d < 1", timeout)
	}
	t := msg.TableFor(Decl(m))
	var (
		senders   slab.Slab[sender]
		receivers slab.Slab[receiver]
		items     slab.Slab[seq.Item]
	)
	return protocol.Spec{
		Name:        fmt.Sprintf("hybrid(m=%d,to=%d)", m, timeout),
		Description: "§5 ABP/AFWZ alternation on a reordering channel: weakly bounded, not bounded",
		NewSender: func(input seq.Seq) (protocol.Sender, error) {
			for _, v := range input {
				if int(v) < 0 || int(v) >= m {
					return nil, fmt.Errorf("hybrid: item %d outside domain of size %d", int(v), m)
				}
			}
			s := senders.New()
			*s = sender{timeout: timeout, t: t, input: items.Clone(input), state: state{lo: len(input)}}
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
func MustNew(m, timeout int) protocol.Spec {
	s, err := New(m, timeout)
	if err != nil {
		panic(err)
	}
	return s
}

// sender phases.
const (
	phasePrefix = iota // ABP on x_{p+1}
	phaseSuffix        // AFWZ-style on x_{lo}
)

// sender bookkeeping, all 0-based over input positions:
//
//	prefix stream has sent positions 0..hi-1 and has acks for 0..p-1;
//	suffix stream has sent positions lo..n-1 and has acks for the last b.
//
// Stream invariants: p <= hi <= p+1 and n-lo-1 <= b+1 (one copy in flight
// per stream), and hi <= lo+1 (the covered regions overlap in at most one
// position).
type sender struct {
	timeout int
	t       *msg.Table
	input   seq.Seq

	state
	moved bool // the last Step changed state
}

// state is the sender's local state proper: the fields Key encodes.
type state struct {
	p  int // acknowledged prefix length
	hi int // prefix positions sent
	b  int // acknowledged suffix length
	lo int // n - (suffix positions sent)

	phase   int
	stalled int  // ticks waiting for the outstanding ack in this phase
	finDone bool // fin acknowledged
}

var _ protocol.Sender = (*sender)(nil)

// covered reports whether acknowledged prefix + suffix span the input
// (possibly overlapping in one position).
func (s *sender) covered() bool { return s.p+s.b >= len(s.input) }

func (s *sender) Step(ev protocol.Event) (sends []msg.Msg) {
	was := s.state
	switch ev.Kind {
	case protocol.Recv:
		s.recv(ev.Msg)
	case protocol.Tick:
		sends = s.tick()
	}
	s.moved = s.state != was
	return sends
}

func (s *sender) Moved() bool { return s.moved }

func (s *sender) recv(m msg.Msg) {
	switch m {
	case FinAck:
		if s.covered() {
			s.finDone = true
		}
	case s.t.R.Msg(kindPrefix, msg.Fields{s.p & 1}):
		if s.hi > s.p {
			s.p++
			// "If the old lost message is delivered, the processors
			// resume executions of the original protocol."
			if s.phase == phasePrefix {
				s.stalled = 0
			} else if !s.covered() {
				s.phase = phasePrefix
				s.stalled = 0
			}
		}
	case s.t.R.Msg(kindSuffix, msg.Fields{s.b & 1}):
		if len(s.input)-s.lo > s.b {
			s.b++
			if s.phase == phaseSuffix {
				s.stalled = 0
			}
		}
	}
}

// tick: data copies are sent exactly once (see the package comment); a
// phase with a copy in flight only waits, and after timeout ticks it
// hands the link to the other stream. fin, which carries no data, is the
// only message retransmitted.
func (s *sender) tick() []msg.Msg {
	if s.covered() {
		if s.finDone {
			return nil
		}
		return s.t.S.Send(kindFin, msg.Fields{len(s.input) & 1})
	}
	switch s.phase {
	case phasePrefix:
		return s.tickPrefix()
	default:
		return s.tickSuffix()
	}
}

func (s *sender) tickPrefix() []msg.Msg {
	if s.hi > s.p { // copy in flight: wait, then switch
		s.stalled++
		if s.stalled > s.timeout {
			s.phase = phaseSuffix
			s.stalled = 0
		}
		return nil
	}
	if s.hi <= s.lo && s.hi < len(s.input) {
		// Fresh position. hi <= lo keeps the overlap at one position: the
		// boundary item the suffix stream may have in flight.
		m := s.t.S.Send(kindPrefix, msg.Fields{s.hi & 1, int(s.input[s.hi])})
		s.hi++
		s.stalled = 0
		return m
	}
	// Nothing to send forward; the missing work is the suffix stream's.
	s.phase = phaseSuffix
	s.stalled = 0
	return nil
}

func (s *sender) tickSuffix() []msg.Msg {
	sent := len(s.input) - s.lo
	if sent > s.b { // copy in flight: wait, then switch
		s.stalled++
		if s.stalled > s.timeout {
			s.phase = phasePrefix
			s.stalled = 0
		}
		return nil
	}
	if s.lo >= s.hi && s.lo > 0 {
		// Fresh position lo-1. lo >= hi mirrors the prefix gate.
		s.lo--
		s.stalled = 0
		return s.t.S.Send(kindSuffix, msg.Fields{sent & 1, int(s.input[s.lo])})
	}
	s.phase = phasePrefix
	s.stalled = 0
	return nil
}

func (s *sender) Alphabet() msg.Alphabet { return s.t.S.Alphabet() }

func (s *sender) Done() bool { return s.finDone }

func (s *sender) Clone() protocol.Sender {
	// The input tape is never mutated after construction, so the clone
	// shares it: the model checker clones on every explored transition.
	cp := *s
	return &cp
}

func (s *sender) Key() string {
	return fmt.Sprintf("hyS{p=%d,hi=%d,b=%d,lo=%d,ph=%d,st=%d,fd=%v}",
		s.p, s.hi, s.b, s.lo, s.phase, s.stalled, s.finDone)
}

func (s *sender) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'H')
	buf = binary.AppendUvarint(buf, uint64(s.p))
	buf = binary.AppendUvarint(buf, uint64(s.hi))
	buf = binary.AppendUvarint(buf, uint64(s.b))
	buf = binary.AppendUvarint(buf, uint64(s.lo))
	buf = binary.AppendUvarint(buf, uint64(s.phase))
	buf = binary.AppendUvarint(buf, uint64(s.stalled))
	return append(buf, boolByte(s.finDone))
}

// receiver is mode-less: it reacts to whichever stream's messages arrive.
// Single-copy gating means each stream's messages arrive in send order
// with the expected bit; the bits are kept as cheap sanity armor.
type receiver struct {
	m        int
	t        *msg.Table
	written  int     // prefix items written (the ABP stream)
	buffer   seq.Seq // suffix items in arrival order: x_n, x_{n-1}, ...
	finished bool
	w        [1]seq.Item // the one-item tape a prefix write returns
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
	b, v := d.F[0], seq.Item(d.F[1])
	switch d.Kind {
	case kindFin:
		ack := r.t.R.Send(kindFin, msg.Fields{})
		if r.finished {
			return ack, nil
		}
		r.finished = true
		return ack, r.commit(b)
	case kindPrefix:
		ack := r.t.R.Send(kindPrefix, msg.Fields{b})
		if !r.finished && b == r.written&1 {
			r.written++
			r.w[0] = v
			return ack, r.w[:]
		}
		return ack, nil
	default: // kindSuffix
		if !r.finished && b == len(r.buffer)&1 {
			r.buffer = append(r.buffer, v)
		}
		return r.t.R.Send(kindSuffix, msg.Fields{b}), nil
	}
}

// commit writes the buffered suffix after the written prefix. The overlap
// between the two streams is 0 or 1 positions (sender invariant
// hi <= lo+1); its exact value is (written + |buffer| - n) and n's parity
// arrives with fin, so overlap = (written + |buffer| + parity) mod 2.
func (r *receiver) commit(nParity int) seq.Seq {
	overlap := (r.written + len(r.buffer) + nParity) & 1
	out := make(seq.Seq, 0, len(r.buffer))
	for i := len(r.buffer) - 1 - overlap; i >= 0; i-- {
		out = append(out, r.buffer[i])
	}
	return out
}

func (r *receiver) Alphabet() msg.Alphabet { return r.t.R.Alphabet() }

func (r *receiver) Clone() protocol.Receiver {
	cp := *r
	cp.buffer = r.buffer.Clone()
	return &cp
}

func (r *receiver) Key() string {
	return fmt.Sprintf("hyR{w=%d,buf=%s,fin=%v}", r.written, r.buffer, r.finished)
}

func (r *receiver) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'h')
	buf = binary.AppendUvarint(buf, uint64(r.written))
	buf = r.buffer.EncodeKey(buf)
	return append(buf, boolByte(r.finished))
}

// boolByte encodes a flag as a single key byte.
func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
