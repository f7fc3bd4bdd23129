package registry_test

import (
	"testing"

	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
)

// TestWindowCycleSteadyStateZeroAlloc extends the Step contract from the
// paths that leave a machine put (steptest's fixtures) to the path that
// moves it: one full window cycle of a warmed windowed pair — W fresh
// sends, W in-order deliveries with their acknowledgements and writes, W
// acknowledgements that move the sender, and the engine's progress probe
// (protocol.AppendKey) after every step — allocates nothing.
func TestWindowCycleSteadyStateZeroAlloc(t *testing.T) {
	const w, runs = 16, 50
	for _, proto := range []string{"gobackn", "selrepeat"} {
		t.Run(proto, func(t *testing.T) {
			// One warm cycle, AllocsPerRun's own warm-up run, the
			// measured runs, and a window to spare: the sender never
			// runs out of fresh items.
			input := make(seq.Seq, w*(runs+3))
			for i := range input {
				input[i] = seq.Item(i % 8)
			}
			s, r, err := registry.Pair(proto, registry.Params{M: 8, Window: w}, input)
			if err != nil {
				t.Fatal(err)
			}
			key := make([]byte, 0, 256)
			frames, acks := make([]msg.Msg, 0, w), make([]msg.Msg, 0, w)
			written := 0
			cycle := func() {
				frames, acks = frames[:0], acks[:0]
				for i := 0; i < w; i++ {
					out := s.Step(protocol.TickEvent())
					if len(out) != 1 {
						t.Fatalf("fresh send %d put %d frames on the wire", i, len(out))
					}
					frames = append(frames, out[0])
					key = protocol.AppendKey(key[:0], s)
				}
				for _, f := range frames {
					sends, writes := r.Step(protocol.RecvEvent(f))
					if len(sends) != 1 || len(writes) != 1 {
						t.Fatalf("in-order delivery of %s: %d acks, %d writes", f, len(sends), len(writes))
					}
					written++
					acks = append(acks, sends[0])
					key = protocol.AppendKey(key[:0], r)
				}
				for _, a := range acks {
					s.Step(protocol.RecvEvent(a))
					key = protocol.AppendKey(key[:0], s)
				}
			}
			cycle() // the receiver's write buffer grows here, once
			if n := testing.AllocsPerRun(runs, cycle); n != 0 {
				t.Errorf("%s: %.1f allocs a window cycle, want 0", proto, n)
			}
			if want := w * (runs + 2); written != want {
				t.Fatalf("%d items written, want %d: the cycles did not advance", written, want)
			}
		})
	}
}
