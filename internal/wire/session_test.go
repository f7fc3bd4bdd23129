package wire

import (
	"context"
	"slices"
	"testing"
	"time"

	"seqtx/internal/msg"
	"seqtx/internal/obs"
	"seqtx/internal/protocol"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
)

// sessionConfigs builds n alpha-protocol sessions with distinct inputs.
func sessionConfigs(t *testing.T, n, m, items int, tick time.Duration) []SessionConfig {
	t.Helper()
	cfgs := make([]SessionConfig, n)
	for i := range cfgs {
		x := make(seq.Seq, items)
		for j := range x {
			x[j] = seq.Item((i + j) % m)
		}
		s, r, err := registry.Pair("alpha", registry.Params{M: m}, x)
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
	return cfgs
}

// TestServeManyConcurrentSessions is the subsystem's concurrency
// acceptance test: 32 sessions multiplexed over one in-process transport
// (run it with -race). Every session must finish its tape with the
// output exactly equal to its input and no safety violations.
func TestServeManyConcurrentSessions(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewInproc(0, reg)
	cfgs := sessionConfigs(t, 32, 8, 5, 200*time.Microsecond)
	reports, err := Serve(context.Background(), ServeConfig{Transport: tr, Sessions: cfgs, Obs: reg})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if len(reports) != len(cfgs) {
		t.Fatalf("got %d reports, want %d", len(reports), len(cfgs))
	}
	for i, rep := range reports {
		if rep.SafetyViolation != nil {
			t.Errorf("session %d: safety violation: %v", rep.ID, rep.SafetyViolation)
		}
		if !rep.Complete {
			t.Errorf("session %d: incomplete: %d/%d items", rep.ID, len(rep.Output), len(rep.Input))
		}
		if !rep.Output.Equal(cfgs[i].Input) {
			t.Errorf("session %d: output %s != input %s", rep.ID, rep.Output, cfgs[i].Input)
		}
		if rep.Complete && len(rep.LearnTimes) != len(rep.Input) {
			t.Errorf("session %d: %d learn times for %d items", rep.ID, len(rep.LearnTimes), len(rep.Input))
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["wire_safety_violations_total"]; got != 0 {
		t.Errorf("violations counter = %d, want 0", got)
	}
	if got := snap.Counters["wire_sessions_completed_total"]; got != int64(len(cfgs)) {
		t.Errorf("completed counter = %d, want %d", got, len(cfgs))
	}
}

// TestServeUnderImpairment runs concurrent sessions over each link-level
// impairment preset; the protocols must still deliver every tape.
func TestServeUnderImpairment(t *testing.T) {
	for _, name := range []string{"burst-drop", "partition-heal", "corrupt", "dup-replay", "reorder"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			opts, err := ImpairPreset(name)
			if err != nil {
				t.Fatalf("ImpairPreset: %v", err)
			}
			tr, err := NewImpairment(NewInproc(0, nil), opts, nil)
			if err != nil {
				t.Fatalf("NewImpairment: %v", err)
			}
			cfgs := sessionConfigs(t, 8, 8, 4, 200*time.Microsecond)
			reports, err := Serve(context.Background(), ServeConfig{Transport: tr, Sessions: cfgs})
			if err != nil {
				t.Fatalf("Serve: %v", err)
			}
			for _, rep := range reports {
				if rep.SafetyViolation != nil {
					t.Errorf("session %d: %v", rep.ID, rep.SafetyViolation)
				}
				if !rep.Complete {
					t.Errorf("session %d incomplete under %s", rep.ID, name)
				}
			}
		})
	}
}

// TestServeUDP exercises the datagram transport end to end.
func TestServeUDP(t *testing.T) {
	tr, err := NewUDP(nil)
	if err != nil {
		t.Fatalf("NewUDP: %v", err)
	}
	cfgs := sessionConfigs(t, 4, 8, 4, 500*time.Microsecond)
	reports, err := Serve(context.Background(), ServeConfig{Transport: tr, Sessions: cfgs})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	for _, rep := range reports {
		if rep.SafetyViolation != nil {
			t.Errorf("session %d: %v", rep.ID, rep.SafetyViolation)
		}
		if !rep.Complete {
			t.Errorf("session %d incomplete over udp", rep.ID)
		}
	}
}

// TestServeContextCancellation: a cancelled context ends every session
// promptly with Complete=false and no safety verdict.
func TestServeContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfgs := sessionConfigs(t, 4, 8, 4, time.Millisecond)
	for i := range cfgs {
		cfgs[i].Deadline = 0
	}
	done := make(chan struct{})
	var reports []Report
	var err error
	go func() {
		reports, err = Serve(ctx, ServeConfig{Transport: NewInproc(0, nil), Sessions: cfgs})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after context cancellation")
	}
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	for _, rep := range reports {
		if rep.SafetyViolation != nil {
			t.Errorf("session %d: spurious violation %v", rep.ID, rep.SafetyViolation)
		}
	}
}

// TestSessionDeadline: a deadline no run over the link can meet (the
// link delivers nothing S→R) expires the session without declaring a
// safety violation.
func TestSessionDeadline(t *testing.T) {
	cfgs := sessionConfigs(t, 1, 8, 6, time.Millisecond)
	cfgs[0].Deadline = 10 * time.Millisecond
	reports, err := Serve(context.Background(), ServeConfig{Transport: blackHole{NewInproc(0, nil)}, Sessions: cfgs})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if reports[0].Complete {
		t.Error("session completed over a link that delivers nothing")
	}
	if reports[0].SafetyViolation != nil {
		t.Errorf("deadline expiry reported as safety violation: %v", reports[0].SafetyViolation)
	}
}

// TestMuxRejectsDuplicateSessionID guards the routing table invariant.
func TestMuxRejectsDuplicateSessionID(t *testing.T) {
	mux := NewMuxConfig(NewInproc(0, nil), MuxConfig{})
	defer mux.Close()
	cfgs := sessionConfigs(t, 1, 8, 2, time.Millisecond)
	if _, err := mux.NewSession(cfgs[0]); err != nil {
		t.Fatalf("first NewSession: %v", err)
	}
	if _, err := mux.NewSession(cfgs[0]); err == nil {
		t.Fatal("duplicate session id accepted")
	}
}

// rogueReceiver is a real receiver that, on its first delivery, writes a
// burst of its own instead: X's first item, a wrong one, then X's third.
type rogueReceiver struct {
	protocol.Receiver
	burst seq.Seq
}

func (r *rogueReceiver) Step(ev protocol.Event) ([]msg.Msg, seq.Seq) {
	sends, writes := r.Receiver.Step(ev)
	if ev.Kind == protocol.Recv && r.burst != nil {
		writes, r.burst = r.burst, nil
	}
	return sends, writes
}

// TestPlainSessionDetectsViolation makes a plain session's write judge
// fire: the session reports the violation with its exact text, its
// output ends at the first bad item (nothing lands after the verdict,
// even within the burst), and the fleet counts one violation.
func TestPlainSessionDetectsViolation(t *testing.T) {
	x := seq.FromInts(0, 1, 2)
	s, r, err := registry.Pair("alpha", registry.Params{M: 3}, x)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := SessionConfig{
		ID: 1, Sender: s, Receiver: &rogueReceiver{r, seq.FromInts(0, 2, 1)}, Input: x,
		Tick: 200 * time.Microsecond, Deadline: 30 * time.Second,
	}
	reports, err := Serve(context.Background(), ServeConfig{Transport: NewInproc(0, reg), Sessions: []SessionConfig{cfg}, Obs: reg})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	rep := reports[0]
	const want = "wire: session 1 safety violated: Y = 0.2 is not a prefix of X = 0.1.2"
	if rep.SafetyViolation == nil || rep.SafetyViolation.Error() != want {
		t.Fatalf("violation %v, want %q", rep.SafetyViolation, want)
	}
	if !rep.Output.Equal(seq.FromInts(0, 2)) || rep.Complete {
		t.Errorf("output %s complete %v, want 0.2 and incomplete", rep.Output, rep.Complete)
	}
	if got := reg.Snapshot().Counters["wire_safety_violations_total"]; got != 1 {
		t.Errorf("violations counter = %d, want 1", got)
	}
}

// TestReportTapesIndependent pins what a report owns. Serve carves every
// session's output and learn-time tapes from one slab apiece, each window
// capped at its session's input length, and buildReport hands them over
// uncopied. So a receiver that writes past its input reallocates its own
// tape instead of writing into its neighbour's, and an append to one
// report's tapes leaves the next report's alone. Report.Input is, by
// contract, the config's own tape: the same backing array, not a copy.
func TestReportTapesIndependent(t *testing.T) {
	cfgs := sessionConfigs(t, 3, 8, 4, 200*time.Microsecond)
	// Session 1 writes its whole input and then 7 in its first step: one
	// item past its window, and not its neighbour's first item (2).
	burst := append(cfgs[1].Input.Clone(), 7)
	cfgs[1].Receiver = &rogueReceiver{cfgs[1].Receiver, burst}
	reports, err := Serve(context.Background(), ServeConfig{Transport: NewInproc(0, nil), Sessions: cfgs})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if rep := reports[1]; rep.SafetyViolation == nil || !rep.Output.Equal(burst) || len(rep.LearnTimes) != len(burst) {
		t.Fatalf("rogue session: violation %v, output %s, %d learn times; want a violation, %s, %d",
			rep.SafetyViolation, rep.Output, len(rep.LearnTimes), burst, len(burst))
	}
	for _, i := range []int{0, 2} {
		rep := reports[i]
		if !rep.Complete || !rep.Output.Equal(cfgs[i].Input) || len(rep.LearnTimes) != len(cfgs[i].Input) {
			t.Errorf("session %d beside the rogue: complete %v, output %s, %d learn times; want %s whole",
				rep.ID, rep.Complete, rep.Output, len(rep.LearnTimes), cfgs[i].Input)
		}
		if &rep.Input[0] != &cfgs[i].Input[0] {
			t.Errorf("session %d: Report.Input is a copy, want SessionConfig.Input itself", rep.ID)
		}
	}

	out, learnt := reports[1].Output.Clone(), slices.Clone(reports[1].LearnTimes)
	_ = append(reports[0].Output, 9)
	_ = append(reports[0].LearnTimes, -1)
	if !reports[1].Output.Equal(out) || !slices.Equal(reports[1].LearnTimes, learnt) {
		t.Errorf("appending to report 0's tapes changed report 1's: output %s (was %s), learn times %v (were %v)",
			reports[1].Output, out, reports[1].LearnTimes, learnt)
	}
}
