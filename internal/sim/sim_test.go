package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"seqtx/internal/channel"
	"seqtx/internal/protocol/alphaproto"
	"seqtx/internal/protocol/naive"
	"seqtx/internal/seq"
	"seqtx/internal/trace"
)

func newWorld(t *testing.T, m int, input seq.Seq, kind channel.Kind) *World {
	t.Helper()
	link, err := channel.NewLinkOfKind(kind)
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(alphaproto.MustNew(m), input, link)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// must unwraps a constructor's result in a test table; an error is a bug
// in the table.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestWorldEnabledAlwaysHasTicks(t *testing.T) {
	t.Parallel()
	w := newWorld(t, 2, seq.FromInts(0, 1), channel.KindDup)
	acts := w.Enabled()
	var hasTickS, hasTickR bool
	for _, a := range acts {
		hasTickS = hasTickS || a.Kind == trace.ActTickS
		hasTickR = hasTickR || a.Kind == trace.ActTickR
	}
	if !hasTickS || !hasTickR {
		t.Fatalf("ticks missing from enabled set %v", acts)
	}
}

func TestWorldApplyDeliverAndWrite(t *testing.T) {
	t.Parallel()
	w := newWorld(t, 2, seq.FromInts(1), channel.KindDup)
	w.StartTrace()
	steps := []trace.Action{
		trace.TickS(), // S sends d:1
		trace.Deliver(channel.SToR, alphaproto.DataMsg(1)), // R writes 1, acks
		trace.Deliver(channel.RToS, alphaproto.AckMsg(1)),  // S advances
		trace.TickS(), // S done, sends nothing
	}
	for _, a := range steps {
		if err := w.Apply(a); err != nil {
			t.Fatalf("Apply(%s): %v", a, err)
		}
	}
	if !w.Output.Equal(seq.FromInts(1)) {
		t.Errorf("Output = %s, want 1", w.Output)
	}
	if !w.OutputComplete() {
		t.Error("OutputComplete() = false")
	}
	if !w.S.Done() {
		t.Error("sender not done after ack")
	}
	if w.Trace.Len() != 4 {
		t.Errorf("trace length = %d, want 4", w.Trace.Len())
	}
	if w.Time != 4 {
		t.Errorf("Time = %d, want 4", w.Time)
	}
}

func TestWorldApplyErrorsOnImpossibleDeliver(t *testing.T) {
	t.Parallel()
	w := newWorld(t, 2, seq.FromInts(0), channel.KindDup)
	if err := w.Apply(trace.Deliver(channel.SToR, alphaproto.DataMsg(0))); err == nil {
		t.Fatal("delivered a never-sent message")
	}
}

func TestWorldCloneIndependence(t *testing.T) {
	t.Parallel()
	w := newWorld(t, 2, seq.FromInts(0, 1), channel.KindDel)
	if err := w.Apply(trace.TickS()); err != nil {
		t.Fatal(err)
	}
	c := w.Clone()
	if err := c.Apply(trace.Deliver(channel.SToR, alphaproto.DataMsg(0))); err != nil {
		t.Fatal(err)
	}
	if len(w.Output) != 0 {
		t.Error("clone's write leaked into original")
	}
	if !w.Link.Half(channel.SToR).CanDeliver(alphaproto.DataMsg(0)) {
		t.Error("clone consumed original's in-flight copy")
	}
	if w.Key() == c.Key() {
		t.Error("diverged worlds share key")
	}
}

func TestRunRoundRobinCompletesOnAllKinds(t *testing.T) {
	t.Parallel()
	for _, kind := range []channel.Kind{channel.KindDup, channel.KindDel, channel.KindReorder, channel.KindFIFO} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			w := newWorld(t, 3, seq.FromInts(0, 1, 2), kind)
			res, err := Run(w, NewRoundRobin(), Config{MaxSteps: 500, StopWhenComplete: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.OutputComplete {
				t.Fatalf("output incomplete after %d steps: %s", res.Steps, res.Output)
			}
			if res.SafetyViolation != nil {
				t.Fatalf("safety violation: %v", res.SafetyViolation)
			}
			if len(res.LearnTimes) != 3 {
				t.Errorf("LearnTimes = %v, want 3 entries", res.LearnTimes)
			}
		})
	}
}

// TestRunWallClockCutRecordsCutStep pins the wall-clock watchdog's
// contract: the budget is polled every wallClockCheckEvery steps, so an
// exhausted budget cuts the run at the first poll (step 255), records
// that step in CutStep, and is never misreported as a stall. A replay
// with MaxSteps = CutStep reproduces the exact observed prefix.
func TestRunWallClockCutRecordsCutStep(t *testing.T) {
	t.Parallel()
	run := func(maxSteps int) Result {
		w := newWorld(t, 3, seq.FromInts(0, 1, 2), channel.KindDup)
		res, err := Run(w, NewRoundRobin(), Config{
			MaxSteps:         maxSteps,
			ProgressDeadline: 400,
			MaxWallClock:     1, // 1ns: exhausted by the first poll
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(10_000)
	if !res.WallClockExceeded {
		t.Fatal("wall-clock watchdog never fired")
	}
	if res.Stalled {
		t.Fatal("wall-clock cut misclassified as a stall")
	}
	if res.CutStep != wallClockCheckEvery-1 {
		t.Errorf("CutStep = %d, want %d (first poll)", res.CutStep, wallClockCheckEvery-1)
	}
	if res.Steps != res.CutStep {
		t.Errorf("Steps = %d, CutStep = %d: cut must happen before the step is taken", res.Steps, res.CutStep)
	}
	// Replayability: MaxSteps = CutStep reproduces the same prefix.
	replay := run(res.CutStep)
	if !replay.Output.Equal(res.Output) || replay.Steps != res.Steps {
		t.Errorf("replay with MaxSteps=CutStep diverged: steps %d vs %d, output %s vs %s",
			replay.Steps, res.Steps, replay.Output, res.Output)
	}
}

func TestRunRejectsNonPositiveMaxSteps(t *testing.T) {
	t.Parallel()
	w := newWorld(t, 1, seq.FromInts(0), channel.KindDup)
	if _, err := Run(w, NewRoundRobin(), Config{}); err == nil {
		t.Fatal("MaxSteps=0 accepted")
	}
}

func TestRandomAdversaryWithFinDelayCompletes(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 5; seed++ {
		w := newWorld(t, 4, seq.FromInts(2, 0, 3, 1), channel.KindDup)
		adv := NewFinDelay(NewRandom(seed), 8)
		res, err := Run(w, adv, Config{MaxSteps: 3000, StopWhenComplete: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OutputComplete {
			t.Errorf("seed %d: incomplete output %s after %d steps", seed, res.Output, res.Steps)
		}
		if res.SafetyViolation != nil {
			t.Errorf("seed %d: safety violation %v", seed, res.SafetyViolation)
		}
	}
}

func TestBudgetDropperStillLive(t *testing.T) {
	t.Parallel()
	// Drop a handful of copies on a del channel; retransmission recovers.
	w := newWorld(t, 3, seq.FromInts(1, 2), channel.KindDel)
	res, err := Run(w, NewBudgetDropper(3, 5), Config{MaxSteps: 1000, StopWhenComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OutputComplete {
		t.Fatalf("incomplete after drops: %s (steps %d)", res.Output, res.Steps)
	}
}

func TestReplayerDoesNotBreakTightProtocol(t *testing.T) {
	t.Parallel()
	// Replayed duplicates must be ignored by the tight protocol's R.
	w := newWorld(t, 4, seq.FromInts(0, 1, 2, 3), channel.KindDup)
	res, err := Run(w, NewReplayer(9, 3), Config{MaxSteps: 2000, StopWhenComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SafetyViolation != nil {
		t.Fatalf("tight protocol violated safety under replay: %v", res.SafetyViolation)
	}
	if !res.OutputComplete {
		t.Fatalf("incomplete under replay: %s", res.Output)
	}
}

func TestWithholderDelaysButFairSuffixDelivers(t *testing.T) {
	t.Parallel()
	w := newWorld(t, 2, seq.FromInts(0, 1), channel.KindDup)
	res, err := Run(w, NewWithholder(50), Config{MaxSteps: 500, StopWhenComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OutputComplete {
		t.Fatal("incomplete after withholding phase")
	}
	if res.LearnTimes[0] < 50 {
		t.Errorf("first item learned at %d, during the withholding phase", res.LearnTimes[0])
	}
}

// TestScriptedAdversarySkipsDisabled pins that Accept rejects each kind of
// disabled action at its own step and plays nothing after it. The name is
// kept from before Accept: renaming would retire a tier-1 test id.
func TestScriptedAdversarySkipsDisabled(t *testing.T) {
	t.Parallel()
	fifo := func() *channel.Link {
		return channel.NewLink(channel.NewFIFO(true, false), channel.NewFIFO(true, false))
	}
	d1 := alphaproto.DataMsg(1)
	cases := []struct {
		name   string
		link   *channel.Link
		script []trace.Action
		step   int
	}{
		{"delivery of a message never sent (dup)", must(channel.NewLinkOfKind(channel.KindDup)),
			[]trace.Action{trace.TickS(), trace.Deliver(channel.SToR, alphaproto.DataMsg(0))}, 1},
		{"second delivery of a consumed copy (del)", must(channel.NewLinkOfKind(channel.KindDel)),
			[]trace.Action{trace.TickS(), trace.Deliver(channel.SToR, d1), trace.TickR(), trace.Deliver(channel.SToR, d1)}, 3},
		{"deliver+dup on a FIFO without duplication", fifo(),
			[]trace.Action{trace.TickS(), {Kind: trace.ActDeliverDup, Dir: channel.SToR, Msg: d1}}, 1},
		{"drop on a dup half", must(channel.NewLinkOfKind(channel.KindDup)),
			[]trace.Action{trace.TickS(), trace.TickS(), trace.Drop(channel.SToR, d1)}, 2},
	}
	for _, c := range cases {
		w, err := New(alphaproto.MustNew(2), seq.FromInts(1), c.link)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Accept(w, append(c.script, trace.TickS()), Config{})
		want := fmt.Sprintf("sim: accept step %d: %s not enabled", c.step, c.script[c.step])
		if err == nil || err.Error() != want {
			t.Errorf("%s: Accept = %v, want %q", c.name, err, want)
		}
		if res.Steps != c.step || w.Time != c.step {
			t.Errorf("%s: %d steps played (clock %d), want the %d before the rejected one", c.name, res.Steps, w.Time, c.step)
		}
	}
}

// TestAcceptMatchesRun: a recorded run, accepted on a fresh world under the
// same config, gives the Result the run gave — steps, tape, verdicts and
// learn times — including a run that breaks safety.
func TestAcceptMatchesRun(t *testing.T) {
	t.Parallel()
	worlds := map[string]func() *World{
		"alpha on del, dropping": func() *World { return newWorld(t, 3, seq.FromInts(2, 0, 1), channel.KindDel) },
		"naive on dup": func() *World {
			w, err := New(must(naive.NewWriteEveryData(2)), seq.FromInts(0, 1, 0), must(channel.NewLinkOfKind(channel.KindDup)))
			if err != nil {
				t.Fatal(err)
			}
			return w
		},
	}
	violated := false
	for name, fresh := range worlds {
		for seed := int64(1); seed <= 5; seed++ {
			cfg := Config{MaxSteps: 400, StopWhenComplete: true}
			rec := fresh()
			rec.StartTrace()
			want, err := Run(rec, NewRandomDropper(seed, 1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Accept(fresh(), rec.Trace.Actions(), cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: Accept gave %+v, Run gave %+v", name, seed, got, want)
			}
			violated = violated || want.SafetyViolation != nil
		}
	}
	if !violated {
		t.Error("no recorded run broke safety: the violating case went untested")
	}
}

func TestTraceRecordsViews(t *testing.T) {
	t.Parallel()
	w := newWorld(t, 2, seq.FromInts(0, 1), channel.KindDup)
	w.StartTrace()
	if _, err := Run(w, NewRoundRobin(), Config{MaxSteps: 200, StopWhenComplete: true}); err != nil {
		t.Fatal(err)
	}
	rv := w.Trace.ReceiverView(-1)
	if len(rv) == 0 {
		t.Fatal("empty receiver view")
	}
	var recvCount int
	for _, e := range rv {
		if !e.IsTick {
			recvCount++
		}
	}
	if recvCount < 2 {
		t.Errorf("receiver view has %d receives, want >= 2", recvCount)
	}
	sv := w.Trace.SenderView(-1)
	if len(sv) == 0 {
		t.Fatal("empty sender view")
	}
	if !strings.Contains(w.Trace.String(), "alpha(m=2)") {
		t.Error("trace rendering missing protocol name")
	}
	if y := w.Trace.Output(-1); !y.Equal(seq.FromInts(0, 1)) {
		t.Errorf("trace output = %s", y)
	}
}

func TestSafetyViolationDetectedOnline(t *testing.T) {
	t.Parallel()
	// Use the naive protocol via a handcrafted world: deliver the same
	// data message twice on a dup channel through the trusting receiver.
	// (Full naive-protocol coverage lives in the mc package tests; here we
	// check the world flags the violation.)
	w := newWorld(t, 2, seq.FromInts(0, 1), channel.KindDup)
	// Corrupt the output tape directly through the receiver path is not
	// possible from outside; instead check the detector itself.
	w.Output = seq.FromInts(1)
	if w.Output.IsPrefixOf(w.Input) {
		t.Fatal("test setup broken")
	}
	// routeReceiver triggers the check on the next write.
	if err := w.routeReceiver(nil, seq.FromInts(0)); err != nil {
		t.Fatal(err)
	}
	if w.SafetyViolation == nil {
		t.Error("safety violation not flagged")
	}
}

func TestFinDelayForcesOverdueDelivery(t *testing.T) {
	t.Parallel()
	// An adversary that always ticks would starve deliveries; FinDelay
	// must override it.
	w := newWorld(t, 2, seq.FromInts(0), channel.KindDup)
	stubborn := NewWithholder(1 << 30)
	adv := NewFinDelay(stubborn, 5)
	res, err := Run(w, adv, Config{MaxSteps: 200, StopWhenComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OutputComplete {
		t.Fatal("FinDelay failed to force delivery")
	}
}

func TestAdversaryNames(t *testing.T) {
	t.Parallel()
	names := []string{
		NewRandom(1).Name(),
		NewRandomDropper(1, 2).Name(),
		NewRoundRobin().Name(),
		NewReplayer(1, 2).Name(),
		NewWithholder(3).Name(),
		NewBudgetDropper(1, 2).Name(),
		NewFinDelay(NewRandom(1), 4).Name(),
	}
	seen := map[string]struct{}{}
	for _, n := range names {
		if n == "" {
			t.Error("empty adversary name")
		}
		if _, dup := seen[n]; dup {
			t.Errorf("duplicate adversary name %q", n)
		}
		seen[n] = struct{}{}
	}
}

func TestApplyDeliverDupOnNonFIFOFails(t *testing.T) {
	t.Parallel()
	w := newWorld(t, 2, seq.FromInts(0), channel.KindDel)
	if err := w.Apply(trace.TickS()); err != nil {
		t.Fatal(err)
	}
	if err := w.Apply(trace.Action{Kind: trace.ActDeliverDup, Dir: channel.SToR, Msg: alphaproto.DataMsg(0)}); err == nil {
		t.Fatal("deliver+dup accepted on a del half")
	}
}

func TestApplyUnknownActionKind(t *testing.T) {
	t.Parallel()
	w := newWorld(t, 1, seq.FromInts(0), channel.KindDup)
	if err := w.Apply(trace.Action{Kind: trace.ActKind(99)}); err == nil {
		t.Fatal("unknown action kind accepted")
	}
}

func TestApplyDropActions(t *testing.T) {
	t.Parallel()
	w := newWorld(t, 2, seq.FromInts(0), channel.KindDel)
	if err := w.Apply(trace.TickS()); err != nil {
		t.Fatal(err)
	}
	if err := w.Apply(trace.Drop(channel.SToR, alphaproto.DataMsg(0))); err != nil {
		t.Fatal(err)
	}
	if w.Link.Half(channel.SToR).CanDeliver(alphaproto.DataMsg(0)) {
		t.Fatal("dropped copy still deliverable")
	}
	if err := w.Apply(trace.Drop(channel.SToR, alphaproto.DataMsg(0))); err == nil {
		t.Fatal("dropped a non-existent copy")
	}
}

func TestEnabledIncludesDropAndDupActions(t *testing.T) {
	t.Parallel()
	// del half: drop enabled once something is in flight.
	w := newWorld(t, 2, seq.FromInts(0), channel.KindDel)
	if err := w.Apply(trace.TickS()); err != nil {
		t.Fatal(err)
	}
	var hasDrop bool
	for _, a := range w.Enabled() {
		if a.Kind == trace.ActDrop {
			hasDrop = true
		}
	}
	if !hasDrop {
		t.Error("no drop action enabled on del half with traffic")
	}
	// FIFO half: deliver+dup enabled at the head.
	wf := newWorld(t, 2, seq.FromInts(0), channel.KindFIFO)
	if err := wf.Apply(trace.TickS()); err != nil {
		t.Fatal(err)
	}
	var hasDup bool
	for _, a := range wf.Enabled() {
		if a.Kind == trace.ActDeliverDup {
			hasDup = true
		}
	}
	if !hasDup {
		t.Error("no deliver+dup action enabled on FIFO half with traffic")
	}
}

func TestQuiescentSemantics(t *testing.T) {
	t.Parallel()
	w := newWorld(t, 1, seq.Seq{}, channel.KindDup)
	if !w.Quiescent() {
		t.Error("empty-input world not quiescent")
	}
	w2 := newWorld(t, 2, seq.FromInts(0), channel.KindDup)
	if err := w2.Apply(trace.TickS()); err != nil {
		t.Fatal(err)
	}
	if w2.Quiescent() {
		t.Error("world with in-flight data quiescent")
	}
}

func TestRunStopsAtSafetyViolation(t *testing.T) {
	t.Parallel()
	// Drive the naive protocol into a violation under a replaying
	// schedule; Run must stop at (not loop past) the violation.
	spec, err := naive.NewWriteEveryData(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunProtocol(spec, seq.FromInts(0, 1), channel.KindDup,
		NewFinDelay(NewReplayer(3, 2), 8), Config{MaxSteps: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if res.SafetyViolation == nil {
		t.Skip("this seed did not trigger the violation")
	}
	if res.Steps >= 5000 {
		t.Error("run did not stop at the violation")
	}
}
