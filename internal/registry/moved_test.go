package registry

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/protocol/alphaproto"
	"seqtx/internal/seq"
)

// movedEncodedSet is the X of the one product sender the registry does not
// name: alpha-encoded, whose members may repeat items.
var movedEncodedSet = seq.MustNewSet(seq.FromInts(0, 0, 0), seq.FromInts(1, 1), seq.FromInts(2), seq.FromInts())

// FuzzSenderMoved holds every product sender to the Moved contract: after
// every Step, Moved() is true exactly when protocol.AppendKey of the
// sender differs from its value before the Step. The first three bytes
// pick the protocol (the registry's, in name order, then alpha-encoded),
// its parameters and its tape; each later byte is an action with its
// operands taken from the bytes after it: a tick, a delivery of the
// receiver's next acknowledgement (fresh), a redelivery of the last one
// (duplicate), an old one or any member of M^R (stale), a message in
// neither alphabet or one of the sender's own frames (alien), a frame
// handed on to the receiver, a Scramble of either end from a seeded rng,
// or a Clone of both ends taken mid-stream, the stream continuing on the
// clones while the originals step on.
func FuzzSenderMoved(f *testing.F) {
	f.Add([]byte{0, 0, 4, 0, 2, 3, 0, 2, 3, 4, 6, 1})
	f.Add([]byte{5, 13, 7, 0, 0, 0, 0, 0, 0, 2, 2, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 4, 3, 7, 2})
	f.Add([]byte{9, 7, 9, 8, 3, 0, 0, 2, 3, 8, 11, 0, 2, 2, 3, 3, 9, 0, 2, 3})
	f.Add([]byte{11, 0, 2, 0, 2, 3, 4, 9, 0, 0, 2, 3, 5, 1})
	// selrepeat at W = 3: the scrambled sender holds an acknowledged slot
	// at base + 1, and a stale acknowledgement of position 0 slides base
	// over it without acknowledging anything new.
	f.Add([]byte{8, 8, 7, 10, 48, 0, 6, 0})
	f.Fuzz(fuzzSenderMoved)
}

func fuzzSenderMoved(t *testing.T, data []byte) {
	if len(data) < 3 {
		return
	}
	names := ProtocolNames()
	pick, pb, tb := int(data[0])%(len(names)+1), int(data[1]), int(data[2])
	var spec protocol.Spec
	var input seq.Seq
	var err error
	if pick == len(names) {
		spec, err = alphaproto.NewEncoded(movedEncodedSet, 3)
		input = movedEncodedSet.At(tb % movedEncodedSet.Size())
	} else {
		p := Params{M: 1 + pb%4, Window: 1 + pb/4%3, Timeout: 1 + pb/12%3, Cap: pb / 36 % 3}
		spec, err = Protocol(names[pick], p)
		// A tape with repeats where the protocol takes one, else a
		// repetition-free one (alpha's X).
		input = make(seq.Seq, tb%12)
		for i := range input {
			input[i] = seq.Item((i*5 + tb) % p.M)
		}
		if err == nil {
			if _, serr := spec.NewSender(input); serr != nil {
				input = input[:min(len(input), p.M)]
				for i := range input {
					input[i] = seq.Item((i + tb) % p.M)
				}
			}
		}
	}
	if err != nil {
		t.Skip(err)
	}
	s, err := spec.NewSender(input)
	if err != nil {
		t.Skip(err)
	}
	r, err := spec.NewReceiver()
	if err != nil {
		t.Fatal(err)
	}

	ops := data[3:]
	arg := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	var before, after []byte
	var toR, toS, acks []msg.Msg // frames in flight each way; every ack ever sent
	var last msg.Msg             // the last acknowledgement delivered
	step := func(what string, ev protocol.Event) {
		t.Helper()
		before = protocol.AppendKey(before[:0], s)
		sends := s.Step(ev)
		after = protocol.AppendKey(after[:0], s)
		if got, want := s.Moved(), !bytes.Equal(before, after); got != want {
			t.Fatalf("%s %s on %s: Moved() = %v, key %x -> %x", spec.Name, what, ev, got, before, after)
		}
		toR = append(toR, sends...)
	}
	aliens := []msg.Msg{"", "zz", "a:", "a:07", "k:zz", "sk:2", "fk:0"}
	for len(ops) > 0 {
		switch arg() % 12 {
		case 0, 1:
			step("tick", protocol.TickEvent())
		case 2:
			if len(toR) > 0 {
				sends, _ := r.Step(protocol.RecvEvent(toR[0]))
				toR = toR[1:]
				toS = append(toS, sends...)
				acks = append(acks, sends...)
			}
		case 3:
			if len(toS) > 0 {
				last, toS = toS[0], toS[1:]
				step("fresh ack", protocol.RecvEvent(last))
			}
		case 4:
			if last != "" {
				step("duplicate ack", protocol.RecvEvent(last))
			}
		case 5:
			if a := arg(); len(acks) > 0 {
				step("stale ack", protocol.RecvEvent(acks[a%len(acks)]))
			}
		case 6:
			if ms := r.Alphabet().Msgs(); len(ms) > 0 {
				step("M^R member", protocol.RecvEvent(ms[arg()%len(ms)]))
			}
		case 7:
			step("alien", protocol.RecvEvent(aliens[arg()%len(aliens)]))
		case 8:
			if a := arg(); len(toR) > 0 {
				step("own frame", protocol.RecvEvent(toR[a%len(toR)]))
			}
		case 9:
			if len(toR) > 0 {
				toR = toR[1:] // lost
			}
		case 10:
			seed := int64(arg())
			if a := arg(); a%2 == 0 {
				protocol.ScrambleState(s, seed)
			} else {
				protocol.ScrambleState(r, seed)
			}
		case 11:
			old, oldR := s, r
			s, r = old.Clone(), oldR.Clone()
			old.Step(protocol.TickEvent())
			if last != "" {
				old.Step(protocol.RecvEvent(last))
			}
			oldR.Step(protocol.TickEvent())
		}
		if len(toR) > 64 {
			toR = toR[len(toR)-64:]
		}
		if len(toS) > 64 {
			toS = toS[len(toS)-64:]
		}
	}
}

// TestSenderMovedStreams runs the fuzz target's action language over
// seeded random streams for every product sender and a spread of
// parameters, so the contract is checked in tier-1 beyond the seed corpus.
func TestSenderMovedStreams(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(39))
	for pick := 0; pick <= len(ProtocolNames()); pick++ {
		for trial := 0; trial < 24; trial++ {
			data := make([]byte, 3+rng.Intn(600))
			rng.Read(data)
			data[0] = byte(pick)
			for i := 3; i < len(data); i++ {
				if rng.Intn(3) == 0 { // more ticks and acknowledgements than chance gives
					data[i] = []byte{0, 2, 3}[rng.Intn(3)]
				}
			}
			t.Run(fmt.Sprintf("%d/%d", pick, trial), func(t *testing.T) {
				fuzzSenderMoved(t, data)
			})
		}
	}
}
