package modseq_test

import (
	"testing"

	"seqtx/internal/channel"
	"seqtx/internal/mc"
	"seqtx/internal/protocol"
	"seqtx/internal/protocol/modseq"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
)

// mustNew is modseq.New for parameters the test knows valid.
func mustNew(t *testing.T, m, window int) protocol.Spec {
	t.Helper()
	spec, err := modseq.New(m, window)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestValidation(t *testing.T) {
	t.Parallel()
	if _, err := modseq.New(-1, 4); err == nil {
		t.Error("negative m accepted")
	}
	if _, err := modseq.New(2, 0); err == nil {
		t.Error("zero window accepted")
	}
	spec := mustNew(t, 2, 4)
	if _, err := spec.NewSender(seq.FromInts(5)); err == nil {
		t.Error("out-of-domain input accepted")
	}
}

func TestAlphabetSizes(t *testing.T) {
	t.Parallel()
	spec := mustNew(t, 3, 4)
	s, _ := spec.NewSender(seq.FromInts(0))
	if got := s.Alphabet().Size(); got != 12 {
		t.Errorf("|M^S| = %d, want M·m = 12", got)
	}
	r, _ := spec.NewReceiver()
	if got := r.Alphabet().Size(); got != 4 {
		t.Errorf("|M^R| = %d, want M = 4", got)
	}
}

func TestCompletesOnFriendlySchedules(t *testing.T) {
	t.Parallel()
	spec := mustNew(t, 2, 4)
	input := seq.FromInts(0, 1, 1, 0, 0, 1, 0)
	for _, kind := range []channel.Kind{channel.KindDup, channel.KindDel, channel.KindReorder} {
		res, err := sim.RunProtocol(spec, input, kind, sim.NewRoundRobin(),
			sim.Config{MaxSteps: 4000, StopWhenComplete: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.SafetyViolation != nil || !res.OutputComplete {
			t.Errorf("%s: complete=%v violation=%v", kind, res.OutputComplete, res.SafetyViolation)
		}
	}
}

func TestSurvivesModerateDrops(t *testing.T) {
	t.Parallel()
	spec := mustNew(t, 2, 8)
	input := seq.FromInts(1, 0, 1, 1, 0)
	for seed := int64(0); seed < 6; seed++ {
		res, err := sim.RunProtocol(spec, input, channel.KindDel,
			sim.NewBudgetDropper(seed, 5), sim.Config{MaxSteps: 6000, StopWhenComplete: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.SafetyViolation != nil || !res.OutputComplete {
			t.Errorf("seed %d: complete=%v violation=%v", seed, res.OutputComplete, res.SafetyViolation)
		}
	}
}

// TestAdversarialFailureExists is the theorem side of §6: the protocol is
// NOT safe in every run — the model checker finds the modular collision.
func TestAdversarialFailureExists(t *testing.T) {
	t.Parallel()
	// Window 2 on a dup channel: input long enough to wrap the window.
	spec := mustNew(t, 1, 2)
	input := seq.FromInts(0, 0, 0) // positions 0,1,2; 2 ≡ 0 (mod 2)
	res, err := mc.Explore(spec, input, channel.KindDup, mc.ExploreConfig{
		MaxDepth:  14,
		MaxStates: 1 << 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("no violation found: modseq would contradict Theorem 1")
	}
}

// TestWindowOneIsNaive sanity-checks the degenerate case.
func TestWindowOneIsNaive(t *testing.T) {
	t.Parallel()
	spec := mustNew(t, 2, 1)
	res, err := mc.Explore(spec, seq.FromInts(0, 1), channel.KindDup,
		mc.ExploreConfig{MaxDepth: 8, MaxStates: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("window 1 must be as broken as the naive protocol")
	}
}

func TestSenderReceiverKeysTrackState(t *testing.T) {
	t.Parallel()
	spec := mustNew(t, 2, 4)
	s, _ := spec.NewSender(seq.FromInts(0, 1))
	c := s.Clone()
	c.Step(protocol.RecvEvent(modseq.AckMsg(4, 0)))
	if s.Key() == c.Key() {
		t.Error("diverged sender clones share key")
	}
	r, _ := spec.NewReceiver()
	rc := r.Clone()
	rc.Step(protocol.RecvEvent(modseq.DataMsg(4, 0, 1)))
	if r.Key() == rc.Key() {
		t.Error("diverged receiver clones share key")
	}
}
