package faults

import (
	"testing"

	"seqtx/internal/channel"
	"seqtx/internal/protocol/alphaproto"
	"seqtx/internal/protocol/stenning"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
)

func runWithPlan(t *testing.T, plan *Plan, specName string, kind channel.Kind, maxSteps int) sim.Result {
	t.Helper()
	spec := alphaproto.MustNew(3)
	input := seq.FromInts(2, 0, 1)
	if specName == "stenning" {
		spec = stenning.New()
	}
	link, err := plan.Link(kind)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.New(spec, input, link)
	if err != nil {
		t.Fatal(err)
	}
	adv := plan.Wrap(sim.NewFinDelay(sim.NewRandom(7), 10))
	res, err := sim.Run(w, adv, sim.Config{MaxSteps: maxSteps, StopWhenComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPresetNamesBuild(t *testing.T) {
	t.Parallel()
	for _, name := range PresetNames() {
		p, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("Preset(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := Preset("no-such-plan"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestInModelFlags(t *testing.T) {
	t.Parallel()
	wantInModel := map[string]bool{
		"none": true, "burst-drop": true, "partition-heal": true,
		"corrupt": false, "crash-sender": false, "crash-receiver": false,
	}
	for name, want := range wantInModel {
		p, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.InModel() != want {
			t.Errorf("%s: InModel() = %v, want %v", name, p.InModel(), want)
		}
	}
}

func TestTightProtocolSurvivesInModelPresets(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"none", "burst-drop", "partition-heal"} {
		for _, kind := range []channel.Kind{channel.KindDup, channel.KindDel} {
			plan, err := Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			res := runWithPlan(t, plan, "alpha", kind, 5000)
			if res.SafetyViolation != nil {
				t.Errorf("%s/%s: safety violation: %v", name, kind, res.SafetyViolation)
			}
			if !res.OutputComplete {
				t.Errorf("%s/%s: incomplete after %d steps", name, kind, res.Steps)
			}
		}
	}
}

func TestBurstDropActuallyDrops(t *testing.T) {
	t.Parallel()
	plan := NewPlan("test").WithBurstDrop(channel.SToR, 0, 100)
	link, err := plan.Link(channel.KindDel)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.New(alphaproto.MustNew(3), seq.FromInts(2, 0, 1), link)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(w, plan.Wrap(sim.NewRoundRobin()), sim.Config{MaxSteps: 100}); err != nil {
		t.Fatal(err)
	}
	if d, ok := link.Half(channel.SToR).(*channel.Del); !ok || d.Dropped() == 0 {
		t.Errorf("burst window dropped nothing (half %T)", link.Half(channel.SToR))
	}
}

func TestCrashReceiverBreaksStenningSafety(t *testing.T) {
	t.Parallel()
	// Stenning is safe on every channel in-model; a receiver crash makes R
	// forget how much of Y it wrote, and when the dup channel re-delivers
	// the early data messages the rewrite violates the prefix property —
	// the canonical out-of-model counterexample.
	plan, err := Preset("crash-receiver")
	if err != nil {
		t.Fatal(err)
	}
	res := runWithPlan(t, plan, "stenning", channel.KindDup, 5000)
	if res.SafetyViolation == nil {
		t.Fatal("stenning survived a receiver crash-restart")
	}
}

func TestCrashSenderSurvivedByTightProtocol(t *testing.T) {
	t.Parallel()
	// The tight protocol's receiver suppresses duplicates, so a sender
	// restart (which retransmits from the beginning) is harmless on a dup
	// channel: the message types are ones R has already dismissed.
	plan, err := Preset("crash-sender")
	if err != nil {
		t.Fatal(err)
	}
	res := runWithPlan(t, plan, "alpha", channel.KindDup, 5000)
	if res.SafetyViolation != nil {
		t.Fatalf("tight protocol violated safety after sender crash: %v", res.SafetyViolation)
	}
	if !res.OutputComplete {
		t.Fatalf("tight protocol incomplete after sender crash (%d steps)", res.Steps)
	}
}

func TestCorruptSubstitutesPreviousSend(t *testing.T) {
	t.Parallel()
	h := NewCorrupt(channel.NewDel(), 2)
	h.Send("a") // 1st: kept
	h.Send("b") // 2nd: substituted with previous ("a")
	h.Send("c") // 3rd: kept
	if h.Corrupted() != 1 {
		t.Fatalf("Corrupted() = %d, want 1", h.Corrupted())
	}
	d := h.Deliverable()
	if d.Get("a") != 2 || d.Get("b") != 0 || d.Get("c") != 1 {
		t.Fatalf("deliverable = %s, want a×2,c×1", d)
	}
}

func TestCorruptCloneIndependence(t *testing.T) {
	t.Parallel()
	h := NewCorrupt(channel.NewDel(), 3)
	h.Send("a")
	cp := h.Clone()
	if cp.Key() != h.Key() {
		t.Fatalf("clone key %q != original %q", cp.Key(), h.Key())
	}
	h.Send("b")
	if cp.Key() == h.Key() {
		t.Fatal("clone tracked original's send")
	}
	if cp.CanDeliver("b") {
		t.Fatal("clone shares inner half with original")
	}
}

func TestCorruptCopyFromIndependence(t *testing.T) {
	t.Parallel()
	h := NewCorrupt(channel.NewDel(), 3)
	h.Send("a")
	h.Send("b")
	cp := NewCorrupt(channel.NewDel(), 5)
	cp.Send("c")
	cp.CopyFrom(h)
	if cp.Key() != h.Key() || cp.SentTotal() != h.SentTotal() {
		t.Fatalf("copy %q (%d sent) != source %q (%d sent)", cp.Key(), cp.SentTotal(), h.Key(), h.SentTotal())
	}
	h.Send("c") // the third send: "b" on both, if the phase was copied
	cp.Send("c")
	if cp.Key() != h.Key() || cp.Corrupted() != 1 {
		t.Fatalf("copy %q (%d corrupted) drifted from source %q", cp.Key(), cp.Corrupted(), h.Key())
	}
	if err := cp.Deliver("a"); err != nil {
		t.Fatal(err)
	}
	if !h.CanDeliver("a") {
		t.Fatal("copy shares its inner half with its source")
	}
}

func TestPartitionWindowBlocksDeliveries(t *testing.T) {
	t.Parallel()
	plan := NewPlan("test").WithPartition(0, 50, channel.SToR, channel.RToS)
	link, err := plan.Link(channel.KindDup)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.New(alphaproto.MustNew(2), seq.FromInts(0, 1), link)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(w, plan.Wrap(sim.NewRoundRobin()), sim.Config{MaxSteps: 300, StopWhenComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OutputComplete {
		t.Fatalf("incomplete after heal: %s", res.Output)
	}
	if len(res.LearnTimes) == 0 || res.LearnTimes[0] < 50 {
		t.Errorf("first item learned at %v, inside the partition window", res.LearnTimes)
	}
}
