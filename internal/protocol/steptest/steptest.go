// Package steptest provides shared steady-state Step fixtures for the
// protocol zoo: for each registry protocol, a warmed sender/receiver
// pair plus one in-alphabet message per hot parse path, chosen so that
// repeating the path does not grow protocol state. The wire
// alloc-contract tests and the registry Step micro-benchmarks both
// drive these fixtures, so "zero allocations per steady-state Step"
// and "ns per steady-state Step" are measured on exactly the same
// paths:
//
//   - tick: the warmed sender's spontaneous step (retransmission,
//     window stall/burst cycle, or gated nil).
//   - recv-data: the warmed receiver parsing a duplicate/stale data
//     message and answering with a re-acknowledgement.
//   - recv-ack: the warmed sender parsing an acknowledgement that does
//     not advance it.
//   - recv-alien: either end handed a message outside both alphabets —
//     the decode miss, which must cost a table lookup and change nothing.
package steptest

import (
	"fmt"

	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/protocol/abp"
	"seqtx/internal/protocol/afwz"
	"seqtx/internal/protocol/alphaproto"
	"seqtx/internal/protocol/gobackn"
	"seqtx/internal/protocol/hybrid"
	"seqtx/internal/protocol/modseq"
	"seqtx/internal/protocol/selrepeat"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
)

// Fixture describes one protocol's steady-state Step exercise.
type Fixture struct {
	// Name is the registry protocol name.
	Name   string
	Params registry.Params
	Input  seq.Seq
	// Finite reports a bounded message alphabet: the zero-alloc Step
	// contract is enforced for these fixtures. Stenning's unbounded
	// counters are benchmarked but not alloc-bounded (its steady paths
	// hit the dynamic intern cache, its cold paths may allocate).
	Finite bool
	// Data is an in-alphabet data message the warmed receiver answers
	// with a re-acknowledgement (or, for the trusting receivers, a
	// fresh write) without growing its reachable state.
	Data msg.Msg
	// Ack is an alphabet-shaped acknowledgement the warmed sender
	// parses but does not advance on.
	Ack msg.Msg
	// Alien is a non-canonical spelling of one of the protocol's own
	// data messages: in neither alphabet, so both ends must ignore it.
	Alien msg.Msg
	// warm drives a freshly constructed pair into the steady state.
	warm func(s protocol.Sender, r protocol.Receiver)
}

// New builds a fresh sender/receiver pair for the fixture and warms it
// into the steady state.
func (f Fixture) New() (protocol.Sender, protocol.Receiver, error) {
	spec, err := registry.Protocol(f.Name, f.Params)
	if err != nil {
		return nil, nil, err
	}
	s, err := spec.NewSender(f.Input)
	if err != nil {
		return nil, nil, err
	}
	r, err := spec.NewReceiver()
	if err != nil {
		return nil, nil, err
	}
	if f.warm != nil {
		f.warm(s, r)
	}
	return s, r, nil
}

func tick(s protocol.Sender, n int) {
	for i := 0; i < n; i++ {
		s.Step(protocol.TickEvent())
	}
}

func deliver(r protocol.Receiver, ms ...msg.Msg) {
	for _, m := range ms {
		r.Step(protocol.RecvEvent(m))
	}
}

// Fixtures returns the steady-state fixture table covering every
// registry protocol. Inputs use m = 4; the windowed family gets an
// 8-item tape so a full window is outstanding in the steady state.
func Fixtures() []Fixture {
	const m = 4
	short := seq.Seq{0, 1, 2, 3}
	long := seq.Seq{0, 1, 2, 3, 0, 1, 2, 3}
	params := registry.Params{M: m, Timeout: 4, Window: 4, Cap: 2}

	return []Fixture{
		{
			// Fresh sender retransmits d:0 every tick; the receiver has
			// seen value 0, so a second copy is a dup re-ack.
			Name: "alpha", Params: params, Input: short, Finite: true,
			Data:  alphaproto.DataMsg(0),
			Ack:   alphaproto.AckMsg(1),
			Alien: "d:07",
			warm: func(s protocol.Sender, r protocol.Receiver) {
				deliver(r, alphaproto.DataMsg(0))
			},
		},
		{
			// After one tick the gate is closed (sent > acks): ticks are
			// nil. The receiver is driven to done by "end", after which
			// item messages are pure re-acks; the sender ignores acks
			// once acks == sent.
			Name: "afwz", Params: params, Input: short, Finite: true,
			Data:  afwz.ItemMsg(0),
			Ack:   afwz.AckMsg,
			Alien: "r:07",
			warm: func(s protocol.Sender, r protocol.Receiver) {
				tick(s, 1)
				deliver(r, afwz.EndMsg)
				s.Step(protocol.RecvEvent(afwz.AckMsg)) // acks == sent: further acks ignored
			},
		},
		{
			// Both streams have a copy in flight after the first two
			// sends: ticks alternate stall phases forever. The fresh
			// receiver re-acks a wrong-parity prefix message; the sender
			// ignores a wrong-parity suffix ack.
			Name: "hybrid", Params: params, Input: short, Finite: true,
			Data:  hybrid.PrefixMsg(1, 0),
			Ack:   hybrid.SuffixAck(1),
			Alien: "p:01:1",
			warm: func(s protocol.Sender, r protocol.Receiver) {
				sends := 0
				for i := 0; i < 64 && sends < 2; i++ {
					if len(s.Step(protocol.TickEvent())) > 0 {
						sends++
					}
				}
			},
		},
		{
			// Receiver expects bit 1 after one delivery, so a bit-0 data
			// message is a retransmission re-ack; the sender expects k:0.
			Name: "abp", Params: params, Input: short, Finite: true,
			Data:  abp.DataMsg(0, 0),
			Ack:   abp.AckMsg(1),
			Alien: "b:1:2 junk",
			warm: func(s protocol.Sender, r protocol.Receiver) {
				deliver(r, abp.DataMsg(0, 0))
			},
		},
		{
			// Unbounded alphabet: steady paths are a stale-position
			// re-ack and a non-matching ack parse.
			Name: "stenning", Params: params, Input: short, Finite: false,
			Data:  msg.Msg("d:0:0"),
			Ack:   msg.Msg("a:1"),
			Alien: "d:01:1",
			warm: func(s protocol.Sender, r protocol.Receiver) {
				deliver(r, msg.Msg("d:0:0"))
			},
		},
		{
			// The trusting receiver writes every data message; the
			// position sender ignores acks for values it is not at.
			Name: "naive", Params: params, Input: short, Finite: true,
			Data:  alphaproto.DataMsg(0),
			Ack:   alphaproto.AckMsg(1),
			Alien: "d:07",
		},
		{
			// The flood sender exhausts its tape during warmup and then
			// ticks nil; receiver/ack paths match naive's.
			Name: "flood", Params: params, Input: short, Finite: true,
			Data:  alphaproto.DataMsg(0),
			Ack:   alphaproto.AckMsg(1),
			Alien: "d:+1",
			warm: func(s protocol.Sender, r protocol.Receiver) {
				tick(s, len(short))
			},
		},
		{
			// Frame 1 is stale while the receiver expects 0; ack a:1
			// does not match the sender's expected a:0.
			Name: "modseq", Params: params, Input: short, Finite: true,
			Data:  modseq.DataMsg(4, 1, 0),
			Ack:   modseq.AckMsg(4, 1),
			Alien: "d:01:1",
		},
		{
			// Window full after 4 ticks: the sender cycles stall →
			// go-back burst. The receiver has delivered frame 0, so a
			// second copy re-acks the expectation; ga:0 equals the
			// sender's base and slides nothing.
			Name: "gobackn", Params: params, Input: long, Finite: true,
			Data:  gobackn.DataMsg(5, 0, 0),
			Ack:   gobackn.AckMsg(5, 0),
			Alien: "g:07:3",
			warm: func(s protocol.Sender, r protocol.Receiver) {
				tick(s, 4)
				deliver(r, gobackn.DataMsg(5, 0, 0))
			},
		},
		{
			// Window full after 4 ticks: the sender cycles stall →
			// selective burst. A redelivered frame 0 lands in the
			// trailing window (pure re-ack); sa:5 is outside [base,
			// next) and acknowledges nothing.
			Name: "selrepeat", Params: params, Input: long, Finite: true,
			Data:  selrepeat.DataMsg(8, 0, 0),
			Ack:   selrepeat.AckMsg(8, 5),
			Alien: "s:+1:0",
			warm: func(s protocol.Sender, r protocol.Receiver) {
				tick(s, 4)
				deliver(r, selrepeat.DataMsg(8, 0, 0))
			},
		},
		{
			// Receiver has accepted value 0 (c+1 = 3 copies): more
			// copies are re-acks. The sender expects a:0, so a:1 is
			// ignored.
			Name: "stab", Params: params, Input: short, Finite: true,
			Data:  alphaproto.DataMsg(0),
			Ack:   alphaproto.AckMsg(1),
			Alien: "d:0 ",
			warm: func(s protocol.Sender, r protocol.Receiver) {
				deliver(r, alphaproto.DataMsg(0), alphaproto.DataMsg(0), alphaproto.DataMsg(0))
			},
		},
	}
}

// Steady asserts the fixture's paths really are steady: running each
// path twice on a warmed pair must leave the process state key
// unchanged by the second run, and the alien message must change and
// produce nothing at either end. It returns a descriptive error naming
// the offending path. Used by the contract tests so a fixture that
// silently drifts (and so measures a cold path) fails loudly.
func Steady(f Fixture) error {
	// tick: the sender may cycle through a bounded stall/burst loop, so
	// compare the key after one full extra cycle instead of per-step.
	s, _, err := f.New()
	if err != nil {
		return err
	}
	const cycle = 16
	tick(s, cycle)
	before := s.Key()
	keys := make(map[string]bool)
	steady := false
	for i := 0; i < cycle; i++ {
		tick(s, 1)
		if s.Key() == before {
			steady = true
			break
		}
		if keys[s.Key()] {
			steady = true // closed a cycle that excludes before's phase point
			break
		}
		keys[s.Key()] = true
	}
	if !steady {
		return fmt.Errorf("steptest %s: tick path is not steady (key %q never recurs)", f.Name, before)
	}

	s2, r, err := f.New()
	if err != nil {
		return err
	}
	deliver(r, f.Data)
	before = r.Key()
	deliver(r, f.Data)
	if r.Key() != before && f.Name != "naive" && f.Name != "flood" {
		return fmt.Errorf("steptest %s: recv-data path mutates receiver: %q -> %q", f.Name, before, r.Key())
	}

	s2.Step(protocol.RecvEvent(f.Ack))
	before = s2.Key()
	s2.Step(protocol.RecvEvent(f.Ack))
	if s2.Key() != before {
		return fmt.Errorf("steptest %s: recv-ack path mutates sender: %q -> %q", f.Name, before, s2.Key())
	}

	before, beforeR := s2.Key(), r.Key()
	sends := s2.Step(protocol.RecvEvent(f.Alien))
	acks, writes := r.Step(protocol.RecvEvent(f.Alien))
	if len(sends)+len(acks)+len(writes) != 0 || s2.Key() != before || r.Key() != beforeR {
		return fmt.Errorf("steptest %s: recv-alien path is not a no-op on %q", f.Name, f.Alien)
	}
	return nil
}
