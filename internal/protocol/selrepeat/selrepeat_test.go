package selrepeat_test

import (
	"math/rand"
	"testing"

	"seqtx/internal/channel"
	"seqtx/internal/mc"
	"seqtx/internal/protocol"
	"seqtx/internal/protocol/selrepeat"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
)

func TestValidation(t *testing.T) {
	t.Parallel()
	if _, err := selrepeat.New(-1, 2); err == nil {
		t.Error("negative m accepted")
	}
	if _, err := selrepeat.New(2, 0); err == nil {
		t.Error("zero window accepted")
	}
	spec := selrepeat.MustNew(2, 2)
	if _, err := spec.NewSender(seq.FromInts(9)); err == nil {
		t.Error("out-of-domain input accepted")
	}
}

func TestAlphabetSizes(t *testing.T) {
	t.Parallel()
	spec := selrepeat.MustNew(3, 2) // mod = 4
	s, _ := spec.NewSender(seq.FromInts(0))
	if got := s.Alphabet().Size(); got != 12 {
		t.Errorf("|M^S| = %d, want 2W·m = 12", got)
	}
	r, _ := spec.NewReceiver()
	if got := r.Alphabet().Size(); got != 4 {
		t.Errorf("|M^R| = %d, want 2W = 4", got)
	}
}

func TestCompletesOnCleanFIFO(t *testing.T) {
	t.Parallel()
	for _, w := range []int{1, 2, 4} {
		spec := selrepeat.MustNew(2, w)
		input := seq.FromInts(0, 1, 1, 0, 1, 0, 0, 1)
		res, err := sim.RunProtocol(spec, input, channel.KindFIFO, sim.NewRoundRobin(),
			sim.Config{MaxSteps: 3000, StopWhenComplete: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.SafetyViolation != nil {
			t.Errorf("W=%d: safety: %v", w, res.SafetyViolation)
		}
		if !res.OutputComplete {
			t.Errorf("W=%d: incomplete: %s", w, res.Output)
		}
	}
}

func TestSurvivesLossAndDuplication(t *testing.T) {
	t.Parallel()
	spec := selrepeat.MustNew(2, 3)
	input := seq.FromInts(1, 0, 1, 1, 0, 0, 1, 0)
	for seed := int64(0); seed < 10; seed++ {
		res, err := sim.RunProtocol(spec, input, channel.KindFIFO,
			sim.NewBudgetDropper(seed, 5), sim.Config{MaxSteps: 20000, StopWhenComplete: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.SafetyViolation != nil {
			t.Errorf("seed %d: safety: %v", seed, res.SafetyViolation)
		}
		if !res.OutputComplete {
			t.Errorf("seed %d: incomplete: %s (%d steps)", seed, res.Output, res.Steps)
		}
	}
}

func TestRandomizedFIFOFuzz(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		w := 1 + rng.Intn(4)
		spec := selrepeat.MustNew(3, w)
		input := seq.Random(rng, 3, 1+rng.Intn(10))
		res, err := sim.RunProtocol(spec, input, channel.KindFIFO,
			sim.NewBudgetDropper(int64(trial), rng.Intn(4)),
			sim.Config{MaxSteps: 30000, StopWhenComplete: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.SafetyViolation != nil {
			t.Fatalf("trial %d (W=%d, X=%s): %v", trial, w, input, res.SafetyViolation)
		}
		if !res.OutputComplete {
			t.Fatalf("trial %d (W=%d, X=%s): incomplete %s", trial, w, input, res.Output)
		}
	}
}

// TestBuffersAcrossGap: a lost middle frame is delivered later and the
// buffered successor is committed with it in one batch.
func TestBuffersAcrossGap(t *testing.T) {
	t.Parallel()
	spec := selrepeat.MustNew(2, 2) // mod 4
	r, _ := spec.NewReceiver()
	// Frame 1 (position 1) arrives before position 0: buffered, acked.
	sends, writes := r.Step(protocol.RecvEvent(selrepeat.DataMsg(4, 1, 1)))
	if len(writes) != 0 {
		t.Fatalf("gap write: %v", writes)
	}
	if len(sends) != 1 || sends[0] != selrepeat.AckMsg(4, 1) {
		t.Fatalf("ack: %v", sends)
	}
	// Position 0 arrives: both items committed in order.
	_, writes = r.Step(protocol.RecvEvent(selrepeat.DataMsg(4, 0, 0)))
	if !writes.Equal(seq.FromInts(0, 1)) {
		t.Fatalf("batched commit = %v, want 0.1", writes)
	}
}

// TestUnsafeUnderReordering: mod-numbered frames collide without order.
func TestUnsafeUnderReordering(t *testing.T) {
	t.Parallel()
	spec := selrepeat.MustNew(1, 1) // mod 2, domain {0}
	res, err := mc.Explore(spec, seq.FromInts(0, 0, 0), channel.KindDel,
		mc.ExploreConfig{MaxDepth: 22, MaxStates: 1 << 19})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("no violation under reordering")
	}
}

func TestSenderSelectiveRetransmission(t *testing.T) {
	t.Parallel()
	spec := selrepeat.MustNew(2, 3) // mod 6
	s, _ := spec.NewSender(seq.FromInts(0, 1, 0))
	// Send all three frames.
	for i := 0; i < 3; i++ {
		if out := s.Step(protocol.TickEvent()); len(out) != 1 {
			t.Fatalf("tick %d: %v", i, out)
		}
	}
	// Ack the middle frame only.
	s.Step(protocol.RecvEvent(selrepeat.AckMsg(6, 1)))
	// Time out: only frames 0 and 2 retransmitted.
	var burst []string
	for i := 0; i < 10 && len(burst) == 0; i++ {
		for _, m := range s.Step(protocol.TickEvent()) {
			burst = append(burst, string(m))
		}
	}
	if len(burst) != 2 {
		t.Fatalf("selective burst = %v, want 2 frames", burst)
	}
	if burst[0] != string(selrepeat.DataMsg(6, 0, 0)) || burst[1] != string(selrepeat.DataMsg(6, 2, 0)) {
		t.Fatalf("burst contents = %v", burst)
	}
	if s.Done() {
		t.Fatal("done with unacked frames")
	}
	s.Step(protocol.RecvEvent(selrepeat.AckMsg(6, 0)))
	s.Step(protocol.RecvEvent(selrepeat.AckMsg(6, 2)))
	if !s.Done() {
		t.Fatalf("not done after all acks: %s", s.Key())
	}
}

// TestCloneAllocsFixed: a clone copies the window's rings, never walks a
// map, so what it allocates does not depend on what the window holds.
func TestCloneAllocsFixed(t *testing.T) {
	const w = 16
	spec := selrepeat.MustNew(4, w)
	s, _ := spec.NewSender(seq.Random(rand.New(rand.NewSource(1)), 4, 4*w))
	r, _ := spec.NewReceiver()
	clones := func(when string) {
		t.Helper()
		sa := testing.AllocsPerRun(20, func() { s.Clone() })
		ra := testing.AllocsPerRun(20, func() { r.Clone() })
		if sa != 2 || ra != 2 {
			t.Errorf("%s: sender Clone %.0f allocs, receiver Clone %.0f, want 2 each", when, sa, ra)
		}
	}
	clones("empty window")
	for i := 0; i < w; i++ {
		s.Step(protocol.TickEvent())
	}
	for n := 1; n < w; n += 2 {
		s.Step(protocol.RecvEvent(selrepeat.AckMsg(2*w, n)))
		r.Step(protocol.RecvEvent(selrepeat.DataMsg(2*w, n, 0)))
	}
	clones("half the window acknowledged and buffered")
	for n := 0; n < w; n += 2 {
		s.Step(protocol.RecvEvent(selrepeat.AckMsg(2*w, n)))
		if n > 0 {
			r.Step(protocol.RecvEvent(selrepeat.DataMsg(2*w, n, 0)))
		}
	}
	clones("sender window empty again, receiver holding all but its first position")
}
