package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/seq"
	"seqtx/internal/trace"
)

// --- progress watchdog -------------------------------------------------

func TestWatchdogKillsStalledRun(t *testing.T) {
	t.Parallel()
	// A withholder that never heals makes no output progress; the watchdog
	// must cut the run at the deadline instead of burning MaxSteps.
	w := newWorld(t, 2, seq.FromInts(0, 1), channel.KindDup)
	res, err := Run(w, NewWithholder(1<<30), Config{MaxSteps: 100000, ProgressDeadline: 120})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stalled {
		t.Fatal("watchdog never fired on a zero-progress run")
	}
	if res.StallStep != 120 || res.Steps != 120 {
		t.Errorf("stall at step %d after %d steps, want both 120", res.StallStep, res.Steps)
	}
	if res.OutputComplete {
		t.Error("stalled run reported complete")
	}
}

func TestWatchdogSparesSlowButSteadyRuns(t *testing.T) {
	t.Parallel()
	// Round-robin completes well within a generous deadline: the watchdog
	// must stay silent on runs that do make progress.
	w := newWorld(t, 3, seq.FromInts(2, 0, 1), channel.KindDel)
	res, err := Run(w, NewRoundRobin(), Config{
		MaxSteps: 5000, StopWhenComplete: true, ProgressDeadline: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalled || !res.OutputComplete {
		t.Fatalf("stalled=%v complete=%v, want clean completion", res.Stalled, res.OutputComplete)
	}
}

func TestWallClockBudgetIsSafetyNet(t *testing.T) {
	t.Parallel()
	// With a 1ns budget the first poll (step 255) trips it; the run ends
	// WallClockExceeded, not hung and not Stalled (no deadline armed).
	w := newWorld(t, 2, seq.FromInts(0, 1), channel.KindDup)
	res, err := Run(w, NewWithholder(1<<30), Config{MaxSteps: 1 << 20, MaxWallClock: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if !res.WallClockExceeded {
		t.Fatal("wall-clock budget never tripped")
	}
	if res.Steps >= 1<<20 || res.Stalled {
		t.Errorf("steps=%d stalled=%v, want early wall-clock cut only", res.Steps, res.Stalled)
	}
}

// --- FinDelay age bookkeeping ------------------------------------------

func TestFinDelayAgeMapPrunesStaleEntries(t *testing.T) {
	t.Parallel()
	// Regression: entries for message types that stop being deliverable
	// must be reaped even when the wrapper itself never delivered them
	// (the inner adversary or a drop consumed the copy). Before the sweep
	// existed, the map grew with every type ever seen and kept it forever.
	link := channel.NewLink(channel.NewDel(), channel.NewDel())
	w := &World{Link: link}
	adv := NewFinDelay(NewRandom(1), 10)
	for _, m := range []msg.Msg{"a", "b", "c"} {
		if err := link.Send(channel.SToR, m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		adv.Choose(w, w.Enabled())
	}
	if adv.ageSize() < 3 {
		t.Fatalf("ageSize = %d before drain, want >= 3 tracked types", adv.ageSize())
	}
	// Consume every copy behind the wrapper's back.
	for _, m := range []msg.Msg{"a", "b", "c"} {
		if err := link.Half(channel.SToR).Deliver(m); err != nil {
			t.Fatal(err)
		}
	}
	// Within one sweep period the map must empty out.
	for i := 0; i < 25; i++ {
		adv.Choose(w, w.Enabled())
	}
	if adv.ageSize() != 0 {
		t.Fatalf("ageSize = %d after drain + sweep period, want 0", adv.ageSize())
	}
}

func TestFinDelayAgeMapBoundedOnLongRun(t *testing.T) {
	t.Parallel()
	// Soak-length run: the map must stay bounded by the live alphabet, not
	// by run length.
	w := newWorld(t, 3, seq.FromInts(2, 0, 1), channel.KindDel)
	adv := NewFinDelay(NewRandomDropper(3, 1), 10)
	if _, err := Run(w, adv, Config{MaxSteps: 20000}); err != nil {
		t.Fatal(err)
	}
	live := len(w.Link.Half(channel.SToR).Deliverable().Support()) +
		len(w.Link.Half(channel.RToS).Deliverable().Support())
	if adv.ageSize() > live+8 {
		t.Fatalf("ageSize = %d with only %d live types: stale entries accumulate", adv.ageSize(), live)
	}
}

// --- Random.Choose: cumulative sampling vs the old materialization -----

// materializedChoose is the pre-optimization implementation, kept here as
// the behavioural reference: build the weighted slice explicitly, index
// it uniformly.
func materializedChoose(rng *rand.Rand, dropWeight int, enabled []trace.Action) trace.Action {
	var weighted []trace.Action
	for _, act := range enabled {
		wgt := 1
		if act.Kind == trace.ActDrop {
			wgt = dropWeight
		}
		for i := 0; i < wgt; i++ {
			weighted = append(weighted, act)
		}
	}
	if len(weighted) == 0 {
		return enabled[rng.Intn(len(enabled))]
	}
	return weighted[rng.Intn(len(weighted))]
}

// benchEnabled builds a large enabled set with a realistic mix of
// deliveries and drops.
func benchEnabled(n int) []trace.Action {
	acts := []trace.Action{trace.TickS(), trace.TickR()}
	for i := 0; len(acts) < n; i++ {
		m := msg.Msg(rune('a' + i%26))
		acts = append(acts, trace.Deliver(channel.SToR, m), trace.Drop(channel.SToR, m))
	}
	return acts[:n]
}

func TestRandomChooseMatchesMaterializedReference(t *testing.T) {
	t.Parallel()
	for _, dropWeight := range []int{0, 1, 3} {
		fast := NewRandomDropper(99, dropWeight)
		ref := rand.New(rand.NewSource(99))
		rng := rand.New(rand.NewSource(7)) // drives the varying enabled sets
		for i := 0; i < 500; i++ {
			enabled := benchEnabled(2 + rng.Intn(40))
			got := fast.Choose(nil, enabled)
			want := materializedChoose(ref, dropWeight, enabled)
			if got != want {
				t.Fatalf("w=%d step %d: cumulative picked %s, reference picked %s",
					dropWeight, i, got, want)
			}
		}
	}
}

func BenchmarkRandomChooseCumulative(b *testing.B) {
	enabled := benchEnabled(256)
	a := NewRandomDropper(1, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Choose(nil, enabled)
	}
}

func BenchmarkRandomChooseMaterialized(b *testing.B) {
	enabled := benchEnabled(256)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		materializedChoose(rng, 3, enabled)
	}
}

// --- stress adversaries ------------------------------------------------

func TestStarverUnderFinDelayStillCompletes(t *testing.T) {
	t.Parallel()
	// The starver realizes the worst legal delay on every message; under a
	// finite-delay budget the schedule is fair, so the tight protocol must
	// still complete — just slower than round-robin.
	for _, kind := range []channel.Kind{channel.KindDup, channel.KindDel} {
		w := newWorld(t, 3, seq.FromInts(2, 0, 1), kind)
		res, err := Run(w, NewFinDelay(NewStarver(), 12), Config{
			MaxSteps: 20000, StopWhenComplete: true, ProgressDeadline: 2000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OutputComplete {
			t.Errorf("%s: starved run incomplete after %d steps (stalled=%v, Y=%s)",
				kind, res.Steps, res.Stalled, res.Output)
		}
		if res.SafetyViolation != nil {
			t.Errorf("%s: %v", kind, res.SafetyViolation)
		}
	}
}

func TestEclipseBlocksThenHeals(t *testing.T) {
	t.Parallel()
	w := newWorld(t, 2, seq.FromInts(0, 1), channel.KindDup)
	res, err := Run(w, NewEclipse(channel.SToR, 100), Config{
		MaxSteps: 2000, StopWhenComplete: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OutputComplete {
		t.Fatalf("eclipse never healed: %d steps, Y=%s", res.Steps, res.Output)
	}
	if len(res.LearnTimes) == 0 || res.LearnTimes[0] < 100 {
		t.Errorf("first item learned at %v, inside the eclipse window", res.LearnTimes)
	}
}

func TestPhasedPartitionIsFairInTheLimit(t *testing.T) {
	t.Parallel()
	w := newWorld(t, 3, seq.FromInts(2, 0, 1), channel.KindDel)
	res, err := Run(w, NewPhasedPartition(20, 20), Config{
		MaxSteps: 20000, StopWhenComplete: true, ProgressDeadline: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OutputComplete || res.SafetyViolation != nil {
		t.Fatalf("complete=%v violation=%v after %d steps", res.OutputComplete, res.SafetyViolation, res.Steps)
	}
}

// --- crash-restart actions ---------------------------------------------

func TestCrashActionsResetProcessState(t *testing.T) {
	t.Parallel()
	w := newWorld(t, 2, seq.FromInts(0, 1), channel.KindDup)
	s0, r0 := w.S.Key(), w.R.Key()
	// Move both processes off their initial states.
	for i := 0; i < 6; i++ {
		for _, act := range []trace.Action{trace.TickS(), trace.TickR()} {
			if err := w.Apply(act); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Apply(trace.CrashS()); err != nil {
		t.Fatal(err)
	}
	if w.S.Key() != s0 {
		t.Errorf("sender key %q after crash, want initial %q", w.S.Key(), s0)
	}
	if err := w.Apply(trace.CrashR()); err != nil {
		t.Fatal(err)
	}
	if w.R.Key() != r0 {
		t.Errorf("receiver key %q after crash, want initial %q", w.R.Key(), r0)
	}
}

func TestCrashActionsRejectedOnHandAssembledWorld(t *testing.T) {
	t.Parallel()
	w := &World{Link: channel.NewLink(channel.NewDup(), channel.NewDup())}
	if err := w.Apply(trace.CrashS()); err == nil {
		t.Fatal("crash accepted on a world with no spec to rebuild from")
	}
}

// A replayed witness performs every restart it recorded: crashes and
// scrambles are fault injections, never in the enabled set, and Accept
// plays all four. The name is kept from before Accept: renaming would
// retire a tier-1 test id.
func TestScriptedPassesThroughCrashActions(t *testing.T) {
	t.Parallel()
	w := newWorld(t, 2, seq.FromInts(0, 1), channel.KindDup)
	script := []trace.Action{trace.TickS(), trace.ScrambleR(7), trace.CrashS(), trace.ScrambleS(3), trace.CrashR(), trace.TickR()}
	res, err := Accept(w, script, Config{RecordTrace: true})
	if err != nil {
		t.Fatalf("crash replay rejected: %v", err)
	}
	if got := w.Trace.Actions(); !slices.Equal(got, script) || res.Steps != len(script) {
		t.Errorf("played %v in %d steps, want %v", got, res.Steps, script)
	}
}
