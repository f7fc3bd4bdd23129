package wire

import (
	"context"
	"testing"
	"time"

	"seqtx/internal/faults"
	"seqtx/internal/obs"
	"seqtx/internal/protocol"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
)

// stabConfigs builds n supervised-ready stab sessions plus the restart
// constructor the supervisor rebuilds crashed processes with.
func stabConfigs(t *testing.T, n, m, items int, tick time.Duration) ([]SessionConfig, func(i int) (protocol.Sender, protocol.Receiver, error)) {
	t.Helper()
	params := registry.Params{M: m, Cap: 2}
	cfgs := make([]SessionConfig, n)
	inputs := make([]seq.Seq, n)
	for i := range cfgs {
		x := make(seq.Seq, items)
		for j := range x {
			x[j] = seq.Item((i + j) % m)
		}
		inputs[i] = x
		s, r, err := registry.Pair("stab", params, x)
		if err != nil {
			t.Fatalf("Pair: %v", err)
		}
		cfgs[i] = SessionConfig{
			ID:       uint64(i + 1),
			Sender:   s,
			Receiver: r,
			Input:    x,
			Tick:     tick,
			Deadline: 30 * time.Second,
		}
	}
	return cfgs, func(i int) (protocol.Sender, protocol.Receiver, error) {
		return registry.Pair("stab", params, inputs[i])
	}
}

// TestStabilizeAuditTransitions pins the audit's alignment rules — the
// same transitions the model checker's quotient alignment uses.
func TestStabilizeAuditTransitions(t *testing.T) {
	in := seq.FromInts(4, 1, 3)
	a := NewStabilizeAudit(in)
	if a.observe(4) {
		t.Fatal("done after one of three items")
	}
	// Crash-restart the receiver: alignment drops and a window opens.
	a.onCrash(true, time.Now())
	if !a.Seeking() {
		t.Fatal("no recovery window after a crash")
	}
	a.observe(9) // junk while seeking: bad write, not a post violation
	a.observe(1) // tape value: candidate suffix restart, not bad
	if !a.observe(3) {
		t.Fatal("aligned suffix reached the end; want done")
	}
	bad, post, times := a.snapshot()
	if bad != 1 || post != 0 {
		t.Fatalf("bad=%d post=%d, want 1 and 0", bad, post)
	}
	if len(times) != 1 {
		t.Fatalf("%d stabilization episodes, want 1", len(times))
	}

	// A bad write with no window open is a post-stabilization violation.
	b := NewStabilizeAudit(in)
	b.observe(1)
	bad, post, _ = b.snapshot()
	if bad != 1 || post != 1 {
		t.Fatalf("uncovered bad write: bad=%d post=%d, want 1 and 1", bad, post)
	}
}

// TestSupervisedScrambleRecovers is the wire tentpole's acceptance test:
// a fleet of stab sessions survives the crash-scramble-both preset —
// live endpoint processes crash-restarted into seeded-arbitrary state
// mid-run — with every tape delivered, zero post-stabilization
// violations, and the wire_stabilize_* metrics populated. Run with
// -race.
func TestSupervisedScrambleRecovers(t *testing.T) {
	spec, err := faults.PresetSpec("crash-scramble-both")
	if err != nil {
		t.Fatalf("PresetSpec: %v", err)
	}
	reg := obs.NewRegistry()
	cfgs, rebuild := stabConfigs(t, 8, 8, 6, 500*time.Microsecond)
	reports, err := ServeSupervised(context.Background(), ChaosServeConfig{
		ServeConfig: ServeConfig{Transport: NewInproc(0, reg), Sessions: cfgs, Obs: reg},
		Chaos:       ChaosConfig{Crashes: spec.Crashes, Seed: 7, Watchdog: 400 * time.Millisecond},
		Rebuild:     rebuild,
	})
	if err != nil {
		t.Fatalf("ServeSupervised: %v", err)
	}
	crashed, scrambledRestarts := 0, 0
	for _, rep := range reports {
		if !rep.Complete {
			t.Errorf("session %d incomplete: %d incarnations, output %s",
				rep.ID, len(rep.Incarnations), rep.Output)
		}
		if rep.PostStabViolations != 0 {
			t.Errorf("session %d: %d post-stabilization violations", rep.ID, rep.PostStabViolations)
		}
		if len(rep.Incarnations) < 2 {
			t.Errorf("session %d: %d incarnations; the first scheduled crash never fired",
				rep.ID, len(rep.Incarnations))
		}
		for _, ic := range rep.Incarnations {
			if ic.Ended == "crash" {
				crashed++
				if ic.Scrambled {
					scrambledRestarts++
				}
				if ic.RestartKey == "" {
					t.Errorf("session %d incarnation %d: no restart key", rep.ID, ic.Index)
				}
			}
		}
		if rep.Complete && len(rep.StabilizeTimes) == 0 && len(rep.Incarnations) > 1 {
			t.Errorf("session %d recovered from crashes with no stabilization episode recorded", rep.ID)
		}
	}
	if crashed == 0 || scrambledRestarts == 0 {
		t.Fatalf("chaos did not bite: %d crashes, %d scrambled restarts", crashed, scrambledRestarts)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["wire_stabilize_post_violations_total"]; got != 0 {
		t.Errorf("wire_stabilize_post_violations_total = %d, want 0", got)
	}
	if got := snap.Counters["wire_stabilize_incarnations_total"]; got < int64(len(cfgs))+int64(crashed) {
		t.Errorf("wire_stabilize_incarnations_total = %d, want >= %d", got, len(cfgs)+crashed)
	}
	if h, ok := snap.Histograms["wire_stabilize_time_seconds"]; !ok || h.Count == 0 {
		t.Error("wire_stabilize_time_seconds histogram empty")
	}
}

// TestSupervisedChaosDeterminism pins the replay contract: two runs
// with the same seed and config realize byte-identical crash schedules
// and restart states — equal digests, equal per-incarnation victims,
// corruption seeds, and state keys. The contract is about sessions that
// outlive the schedule, so the receiver crash comes at tick 8: session
// 2's sender restarts two items from the end, which take at least 4.5
// ticks (three timer copies an item, at 0.75 + 1.5 ticks at the
// earliest) and about 7, so it is still running then whatever the load.
func TestSupervisedChaosDeterminism(t *testing.T) {
	run := func() []SupervisedReport {
		t.Helper()
		cfgs, rebuild := stabConfigs(t, 4, 8, 6, time.Millisecond)
		reports, err := ServeSupervised(context.Background(), ChaosServeConfig{
			ServeConfig: ServeConfig{Transport: NewInproc(0, nil), Sessions: cfgs},
			Chaos: ChaosConfig{
				Crashes: []faults.CrashPoint{
					{Who: faults.Sender, At: []int{5}, Scramble: true},
					{Who: faults.Receiver, At: []int{8}, Scramble: true},
				},
				Seed:     42,
				Watchdog: 750 * time.Millisecond,
			},
			Rebuild: rebuild,
		})
		if err != nil {
			t.Fatalf("ServeSupervised: %v", err)
		}
		return reports
	}
	a, b := run(), run()
	for i := range a {
		if a[i].PostStabViolations != 0 || b[i].PostStabViolations != 0 {
			t.Errorf("session %d: post-stabilization violations (%d, %d)",
				a[i].ID, a[i].PostStabViolations, b[i].PostStabViolations)
		}
		if !a[i].Complete || !b[i].Complete {
			t.Errorf("session %d: incomplete (%v, %v)", a[i].ID, a[i].Complete, b[i].Complete)
		}
		if a[i].CrashScheduleDigest != b[i].CrashScheduleDigest {
			t.Errorf("session %d: digests diverged: %x vs %x\nrun A: %+v\nrun B: %+v",
				a[i].ID, a[i].CrashScheduleDigest, b[i].CrashScheduleDigest,
				a[i].Incarnations, b[i].Incarnations)
			continue
		}
		if len(a[i].Incarnations) != len(b[i].Incarnations) {
			t.Errorf("session %d: incarnation counts diverged: %d vs %d",
				a[i].ID, len(a[i].Incarnations), len(b[i].Incarnations))
			continue
		}
		for k := range a[i].Incarnations {
			ia, ib := a[i].Incarnations[k], b[i].Incarnations[k]
			if ia.Ended != ib.Ended || ia.Victim != ib.Victim || ia.AtTick != ib.AtTick ||
				ia.Scrambled != ib.Scrambled || ia.ScrambleSeed != ib.ScrambleSeed ||
				ia.RestartKey != ib.RestartKey {
				t.Errorf("session %d incarnation %d diverged:\nA: %+v\nB: %+v", a[i].ID, k, ia, ib)
			}
		}
	}
}
