package wire

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seqtx/internal/channel"
	"seqtx/internal/faults"
	"seqtx/internal/obs"
	"seqtx/internal/protocol"
	"seqtx/internal/protocol/steptest"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
)

// zooParams satisfies every registered protocol's constructor (hybrid
// needs Timeout, the windowed family needs Window).
var zooParams = registry.Params{M: 8, Timeout: 4, Window: 4}

// zooCells is the registry zoo the outcome suite runs, and the
// impairment presets each protocol must survive. naive is excluded by
// design: it is the paper's deliberately unsafe strawman. afwz skips
// dup-replay and reorder because its model assumes a duplication-free
// FIFO channel — on those presets it (correctly) violates or stalls, so
// neither cell says anything about the engine.
var zooCells = []struct {
	proto   string
	presets []string
}{
	{"alpha", []string{"none", "burst-drop", "dup-replay", "reorder", "corrupt", "partition-heal"}},
	{"afwz", []string{"none", "burst-drop", "corrupt", "partition-heal"}},
	{"hybrid", []string{"none", "burst-drop", "dup-replay"}},
	{"abp", []string{"none", "burst-drop", "dup-replay"}},
	{"stenning", []string{"none", "burst-drop", "dup-replay"}},
	{"modseq", []string{"none", "burst-drop", "dup-replay"}},
	{"gobackn", []string{"none", "burst-drop", "dup-replay"}},
	{"selrepeat", []string{"none", "burst-drop", "dup-replay"}},
	{"stab", []string{"none", "burst-drop", "dup-replay"}},
}

// zooSessions builds n sessions of one protocol on 4-item tapes, with
// per-session seeds fixed by index (offset by seedBase) so every run
// draws the same jitter streams.
func zooSessions(t *testing.T, proto string, n int, tick, deadline time.Duration, seedBase int64) []SessionConfig {
	t.Helper()
	cfgs := make([]SessionConfig, n)
	for i := range cfgs {
		x := make(seq.Seq, 4)
		for j := range x {
			x[j] = seq.Item((i + j) % zooParams.M)
		}
		s, r, err := registry.Pair(proto, zooParams, x)
		if err != nil {
			t.Fatalf("Pair(%s): %v", proto, err)
		}
		cfgs[i] = SessionConfig{
			ID: uint64(i + 1), Sender: s, Receiver: r, Input: x,
			Tick: tick, Deadline: deadline, Seed: seedBase + int64(1000*i+7),
		}
	}
	return cfgs
}

// runZooFleet runs n sessions of one protocol under one impairment
// preset.
func runZooFleet(t *testing.T, proto, preset string, n int) []Report {
	t.Helper()
	var tr Transport = NewInproc(0, nil)
	if preset != "none" {
		opts, err := ImpairPreset(preset)
		if err != nil {
			t.Fatalf("ImpairPreset: %v", err)
		}
		if tr, err = NewImpairment(tr, opts, nil); err != nil {
			t.Fatalf("NewImpairment: %v", err)
		}
	}
	reports, err := Serve(context.Background(), ServeConfig{
		Transport: tr,
		Sessions:  zooSessions(t, proto, n, 200*time.Microsecond, 30*time.Second, 0),
	})
	if err != nil {
		t.Fatalf("Serve(%s/%s): %v", proto, preset, err)
	}
	return reports
}

// TestEngineEquivalence is the zoo-outcome suite: the registry zoo ×
// impairment presets, every cell run on the event loop with fixed
// seeds. The engine's runs must be observably equivalent to the model's
// — every session completes with Output exactly equal to Input and no
// safety violation, the same observable the DESIGN §8 sim↔wire fidelity
// argument uses (§11 argues why the loop's scheduling cannot change
// it). Wall-clock-dependent fields (Elapsed, Retransmits, LearnTimes)
// vary run to run on a live transport and are not asserted.
func TestEngineEquivalence(t *testing.T) {
	for _, z := range zooCells {
		for _, preset := range z.presets {
			t.Run(fmt.Sprintf("%s/%s", z.proto, preset), func(t *testing.T) {
				t.Parallel()
				for _, rep := range runZooFleet(t, z.proto, preset, 2) {
					if rep.SafetyViolation != nil {
						t.Errorf("session %d: safety violation: %v", rep.ID, rep.SafetyViolation)
					}
					if !rep.Complete {
						t.Errorf("session %d: incomplete (%d/%d items)", rep.ID, len(rep.Output), len(rep.Input))
					}
					if !rep.Output.Equal(rep.Input) {
						t.Errorf("session %d: output %s != input %s", rep.ID, rep.Output, rep.Input)
					}
				}
			})
		}
	}
}

// blackHole is a link that delivers nothing from S to R: every frame
// the sender puts on it is lost, which a deletion channel may do for as
// long as it likes. A session over it cannot complete however promptly
// the engine schedules it, so it is the brake the deadline and
// cancellation tests need (a slow tick stopped being one when fresh
// sends left the timer). Embedding the interface hides the inner
// transport's batch fast paths, so every frame comes through Send; an
// inner transport that pushes still does, so there is no router.
type blackHole struct{ Transport }

func (b blackHole) pushTo(m *Mux) bool {
	p, ok := b.Transport.(pusher)
	return ok && p.pushTo(m)
}

func (b blackHole) Send(from End, frame []byte) error {
	if from == SenderEnd {
		return nil
	}
	return b.Transport.Send(from, frame)
}

// TestLoopDeadlineExpiry is the satellite regression for the context
// tower's replacement: a session deadline is carried in session state and enforced by the worker's timer heap, and
// its expiry must report Complete=false — never a safety verdict.
func TestLoopDeadlineExpiry(t *testing.T) {
	mux := NewMuxConfig(blackHole{NewInproc(0, nil)}, MuxConfig{})
	defer mux.Close()
	x := seq.Seq{0, 1, 2, 3, 4, 5}
	s, r, err := registry.Pair("alpha", zooParams, x)
	if err != nil {
		t.Fatalf("Pair: %v", err)
	}
	sess, err := mux.NewSession(SessionConfig{
		ID: 1, Sender: s, Receiver: r, Input: x,
		Deadline: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	rep := sess.Run(context.Background())
	if rep.Complete {
		t.Error("session completed over a link that delivers nothing")
	}
	if rep.SafetyViolation != nil {
		t.Errorf("deadline expiry reported as safety violation: %v", rep.SafetyViolation)
	}
	if rep.Elapsed < 10*time.Millisecond {
		t.Errorf("session ended at %v, before its 10ms deadline", rep.Elapsed)
	}
}

// TestLoopRunCtxDeadline: a ctx deadline folds into the same deadline
// state as SessionConfig.Deadline, with the same verdict
// contract.
func TestLoopRunCtxDeadline(t *testing.T) {
	mux := NewMuxConfig(blackHole{NewInproc(0, nil)}, MuxConfig{})
	defer mux.Close()
	x := seq.Seq{0, 1, 2, 3}
	s, r, err := registry.Pair("alpha", zooParams, x)
	if err != nil {
		t.Fatalf("Pair: %v", err)
	}
	sess, err := mux.NewSession(SessionConfig{
		ID: 1, Sender: s, Receiver: r, Input: x,
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	rep := sess.Run(ctx)
	if rep.Complete {
		t.Error("session completed over a link that delivers nothing")
	}
	if rep.SafetyViolation != nil {
		t.Errorf("ctx deadline expiry reported as safety violation: %v", rep.SafetyViolation)
	}
}

// TestLoopRunContextCancellation: cancelling the Run ctx finishes the
// session promptly through the engine's cancel path (no contexts inside
// the loop).
func TestLoopRunContextCancellation(t *testing.T) {
	mux := NewMuxConfig(blackHole{NewInproc(0, nil)}, MuxConfig{})
	defer mux.Close()
	x := seq.Seq{0, 1, 2, 3}
	s, r, err := registry.Pair("alpha", zooParams, x)
	if err != nil {
		t.Fatalf("Pair: %v", err)
	}
	sess, err := mux.NewSession(SessionConfig{
		ID: 1, Sender: s, Receiver: r, Input: x,
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	done := make(chan Report, 1)
	go func() { done <- sess.Run(ctx) }()
	select {
	case rep := <-done:
		if rep.Complete {
			t.Error("session over a link that delivers nothing reported complete after cancellation")
		}
		if rep.SafetyViolation != nil {
			t.Errorf("cancellation reported as safety violation: %v", rep.SafetyViolation)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after ctx cancellation")
	}
}

// TestServePacedStarts: StartEvery spaces the fleet's starts on the
// workers' timer heaps — for a supervised fleet like any other, the two
// are attributes of one Serve — and a session cancelled before its start
// instant finishes at once, incomplete, having sent nothing.
func TestServePacedStarts(t *testing.T) {
	t.Run("spread", func(t *testing.T) {
		const n, every = 8, 5 * time.Millisecond
		reg := obs.NewRegistry()
		cfgs, rebuild := stabConfigs(t, n, 8, 3, 500*time.Microsecond)
		done := make(chan []Report, 1)
		go func() {
			// The crash is due at tick 0, the start instant itself: it pops in
			// the turn that attached the session, before that turn ships the
			// attach frames, so every session is restarted before it can have
			// delivered a single item, however fast the engine runs.
			reports, err := Serve(context.Background(), ServeConfig{
				Transport: NewInproc(0, reg), Sessions: cfgs, Obs: reg, StartEvery: every,
				Chaos:   &ChaosConfig{Crashes: []faults.CrashPoint{{Who: faults.Sender, At: []int{0}, Scramble: true}}, Seed: 5},
				Rebuild: rebuild,
			})
			if err != nil {
				t.Errorf("Serve: %v", err)
			}
			done <- reports
		}()
		// Start events carry no timestamp: watch for the first and the last.
		var first, last time.Time
		for last.IsZero() {
			starts := 0
			for _, ev := range reg.Snapshot().Events {
				if ev.Kind == "wire.session.start" {
					starts++
				}
			}
			if starts > 0 && first.IsZero() {
				first = time.Now()
			}
			if starts == n {
				last = time.Now()
			}
			time.Sleep(200 * time.Microsecond)
		}
		if spread := last.Sub(first); spread < (n-1)*every/2 {
			t.Errorf("%d starts spread over %v, want about %v", n, spread, (n-1)*every)
		}
		for _, rep := range <-done {
			if !rep.Complete || rep.Chaos.PostStabViolations != 0 || len(rep.Chaos.Incarnations) < 2 {
				t.Errorf("session %d: complete=%v chaos=%+v", rep.ID, rep.Complete, rep.Chaos)
			}
		}
	})
	t.Run("cancelled before the start instant", func(t *testing.T) {
		reg := obs.NewRegistry()
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(20*time.Millisecond, cancel)
		began := time.Now()
		reports, err := Serve(ctx, ServeConfig{
			Transport: blackHole{NewInproc(0, reg)}, Obs: reg, StartEvery: time.Hour,
			Sessions: zooSessions(t, "alpha", 4, time.Millisecond, 0, 0),
		})
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
		if took := time.Since(began); took > 10*time.Second {
			t.Errorf("Serve returned %v after the cancellation", took)
		}
		for i, rep := range reports {
			if rep.Complete || rep.SafetyViolation != nil {
				t.Errorf("session %d: complete=%v violation=%v", rep.ID, rep.Complete, rep.SafetyViolation)
			}
			if started := i == 0; started != (rep.FramesTx > 0) || started != (rep.Elapsed > 0) {
				t.Errorf("session %d: %d frames over %v; only the first session's start instant came", rep.ID, rep.FramesTx, rep.Elapsed)
			}
		}
		snap := reg.Snapshot()
		if got := snap.Counters["wire_sessions_unfinished_total"]; got != 4 {
			t.Errorf("wire_sessions_unfinished_total = %d, want 4", got)
		}
		if got := snap.Gauges["wire_sessions_active"]; got != 0 {
			t.Errorf("wire_sessions_active = %v after the fleet ended", got)
		}
	})
}

// TestSessionsActiveGauge starts sessions on one mux's metrics from
// several goroutines at once, then ends them all the same way. Each
// goroutine reads the wire_sessions_active gauge right after each of its
// starts: every start counted before that read has returned, so the gauge
// must hold at least that many. It then must read exactly the number
// started, and 0 once all have ended. A gauge set from a separate count
// in a second step can be overwritten by a goroutine that took its count
// earlier and was preempted before setting it.
func TestSessionsActiveGauge(t *testing.T) {
	const goroutines, per = 4, 50000
	reg := obs.NewRegistry()
	met := newMuxMetrics(reg)
	active := reg.Gauge("wire_sessions_active")
	var returned, behind atomic.Int64
	fleet := func(step func()) {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					step()
				}
			}()
		}
		wg.Wait()
	}
	fleet(func() {
		met.sessionStarted()
		if n := returned.Add(1); active.Value() < float64(n) {
			behind.Add(1)
		}
	})
	if n := behind.Load(); n > 0 {
		t.Errorf("%d reads found wire_sessions_active below the starts that had returned", n)
	}
	if got := active.Value(); got != goroutines*per {
		t.Errorf("wire_sessions_active = %v after %d starts", got, goroutines*per)
	}
	fleet(met.sessionEnded)
	if got := active.Value(); got != 0 {
		t.Errorf("wire_sessions_active = %v with every session ended", got)
	}
}

// TestTimerProgressInvariant pins the worker's progress guarantee: fired
// at any reading around its tick or its deadline, a session either
// finishes or is left with exactly one heap entry strictly later than
// that reading. An entry re-armed at or before now would be popped again
// on the same reading, forever — the livelock a pop on the wall clock
// judged by a due-check on the monotonic clock used to produce.
func TestTimerProgressInvariant(t *testing.T) {
	const tick = int64(time.Millisecond)
	const at = int64(time.Second) // the instant under test
	for _, tc := range []struct {
		name               string
		tickNext, deadline int64
	}{
		{"tick", at, noDeadline},
		{"deadline", at + tick, at},
		{"tick and deadline together", at, at},
	} {
		for _, now := range []int64{at - 1, at, at + 1} {
			mux, w := manualMux(t, discard{})
			x := seq.Seq{0, 1, 2, 3}
			s, r, err := registry.Pair("alpha", zooParams, x)
			if err != nil {
				t.Fatalf("Pair: %v", err)
			}
			sess, err := mux.NewSession(SessionConfig{ID: 1, Sender: s, Receiver: r, Input: x, Tick: time.Duration(tick)})
			if err != nil {
				t.Fatalf("NewSession: %v", err)
			}
			// Attached at instant 0; fire runs here, at the reading under test.
			mux.loop.start(context.Background(), sess, 0, func(*Session, Report) {})
			w.turn()
			sess.tickNext, sess.deadlineAt = tc.tickNext, tc.deadline
			fireAt(w, now)
			switch {
			case sess.finished:
				if now < tc.deadline {
					t.Errorf("%s, now=at%+d: finished before its deadline", tc.name, now-at)
				}
				if len(w.timers) != 0 {
					t.Errorf("%s, now=at%+d: finished session re-armed %d entries", tc.name, now-at, len(w.timers))
				}
			case len(w.timers) != 1:
				t.Errorf("%s, now=at%+d: %d heap entries for a live session, want 1", tc.name, now-at, len(w.timers))
			case w.timers[0].at <= now:
				t.Errorf("%s, now=at%+d: re-armed at now%+d, not after now", tc.name, now-at, w.timers[0].at-now)
			}
		}
	}
}

// TestServeWaveStress is the livelock regression at fleet scale: wave
// after wave of 1024 short sessions saturates both workers' timer
// heaps, which is where a worker used to spin on a not-quite-due entry
// and starve half a wave past its deadline (about one wave in twenty).
// Every session of every wave must complete, inside its deadline.
func TestServeWaveStress(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet stress in -short mode")
	}
	const waves, n, deadline = 30, 1024, 2 * time.Second
	for w := 0; w < waves; w++ {
		cfgs := zooSessions(t, "alpha", n, time.Millisecond, deadline, int64(w))
		// The ctx outlives the deadline only so that a stuck worker — which
		// honours cancellation but not deadlines — fails the test instead
		// of hanging it.
		reports, err := Serve(contextWithTimeout(t, 2*deadline), ServeConfig{Transport: NewInproc(0, nil), Sessions: cfgs})
		if err != nil {
			t.Fatalf("wave %d: Serve: %v", w, err)
		}
		for _, rep := range reports {
			if !rep.Complete || rep.Elapsed >= deadline {
				t.Fatalf("wave %d, session %d: complete=%v after %v (deadline %v)",
					w, rep.ID, rep.Complete, rep.Elapsed, deadline)
			}
		}
	}
}

// TestSessionIDOutOfRange pins the session table's one bound: an id at
// or past MaxSessionID is rejected at registration with an error naming
// the limit (there is no overflow table behind the dense one), the
// largest ordinary ids register and reject duplicates as ever, and an
// inbound frame naming an out-of-range id is an unknown_session drop.
func TestSessionIDOutOfRange(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewInproc(0, reg)
	mux := NewMuxConfig(tr, MuxConfig{Obs: reg})
	defer mux.Close()
	x := seq.Seq{0, 1, 2}
	session := func(id uint64) (*Session, error) {
		s, r, err := registry.Pair("alpha", zooParams, x)
		if err != nil {
			t.Fatalf("Pair: %v", err)
		}
		return mux.NewSession(SessionConfig{
			ID: id, Sender: s, Receiver: r, Input: x,
			Tick: 200 * time.Microsecond, Deadline: 30 * time.Second,
		})
	}
	for _, id := range []uint64{MaxSessionID, MaxSessionID + 17, 1 << 40} {
		if _, err := session(id); err == nil || !strings.Contains(err.Error(), fmt.Sprint(MaxSessionID)) {
			t.Errorf("NewSession(id %d) = %v, want an error naming the limit %d", id, err, MaxSessionID)
		}
		if mux.lookup(id) != nil {
			t.Errorf("lookup(%d) found a session past the limit", id)
		}
	}
	// Before any session runs, so no late frame of a finished one can
	// share the counter.
	frame := EncodeFrame(Frame{Session: MaxSessionID + 17, Dir: channel.SToR, Msg: "d:0"})
	if err := tr.Send(SenderEnd, frame); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if got := waitCounter(t, reg, `wire_frames_dropped_total{cause="unknown_session"}`, 1); got != 1 {
		t.Errorf("unknown_session drops = %d, want 1 (the out-of-range frame)", got)
	}
	sess, err := session(70000)
	if err != nil {
		t.Fatalf("NewSession(70000): %v", err)
	}
	if _, err := session(70000); err == nil {
		t.Error("duplicate session id accepted")
	}
	if rep := sess.Run(context.Background()); rep.SafetyViolation != nil || !rep.Complete {
		t.Errorf("session %d: complete=%v violation=%v", rep.ID, rep.Complete, rep.SafetyViolation)
	}
	if mux.lookup(70000) != nil {
		t.Error("finished session still registered")
	}
}

// TestTimerHeapOrdering pins the worker timer heap's min-heap law: pops
// come out in non-decreasing wake order whatever the push order.
func TestTimerHeapOrdering(t *testing.T) {
	var h timerHeap
	want := make([]int64, 0, 200)
	for i := 0; i < 200; i++ {
		at := int64(faults.SplitMix64(uint64(i)) % 1_000_000)
		want = append(want, at)
		h.push(at, nil)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i, w := range want {
		if got := h.pop().at; got != w {
			t.Fatalf("pop %d: at=%d, want %d", i, got, w)
		}
	}
	if len(h) != 0 {
		t.Fatalf("heap not empty after draining: %d left", len(h))
	}
}

// TestLoopPrimitivesZeroAlloc pins the per-event allocation contract of
// the event-loop engine's worker-local primitives: once the heap's
// backing array and the inbox are warm, a timer cycle and an inbox
// cycle must not allocate — these run once per session event at
// million-session scale.
func TestLoopPrimitivesZeroAlloc(t *testing.T) {
	var h timerHeap
	for i := 0; i < 64; i++ {
		h.push(int64(i), nil)
	}
	for len(h) > 0 {
		h.pop()
	}
	assertZeroAlloc(t, "timer heap push/pop cycle", func() {
		for i := 0; i < 32; i++ {
			h.push(int64(i%7), nil)
		}
		for len(h) > 0 {
			h.pop()
		}
	})

	var q inbox
	q.init(64)
	batch := q.drain(nil)
	assertZeroAlloc(t, "inbox stage/publish/drain cycle", func() {
		for i := 0; i < 16; i++ {
			if q.stage("d:1") != pushOK {
				t.Fatal("stage failed")
			}
		}
		q.publish()
		batch = q.drain(batch)
		if len(batch) != 16 {
			t.Fatalf("drained %d, want 16", len(batch))
		}
	})

	// The progress probe runs after every step of a fill and every
	// acknowledgement a sender drains: on every registry protocol a step
	// and its Moved report allocate nothing.
	for _, f := range steptest.Fixtures() {
		snd, _, err := f.New()
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		for i := 0; i < 32; i++ { // as TestStepSteadyStateZeroAlloc warms a sender
			snd.Step(protocol.TickEvent())
		}
		ack, alien := protocol.RecvEvent(f.Ack), protocol.RecvEvent(f.Alien)
		assertZeroAlloc(t, f.Name+" sender step and Moved", func() {
			if f.Finite {
				snd.Step(protocol.TickEvent())
				_ = snd.Moved()
			}
			snd.Step(ack)
			_ = snd.Moved()
			snd.Step(alien)
			_ = snd.Moved()
		})
	}
}

// TestLoopFlatMemory is the tentpole's footprint contract in miniature:
// a fleet of live, idle event-loop sessions must cost no goroutines and a
// bounded, flat number of bytes each. 20k sessions keep the test fast.
// Each session is attached and stays so: its link is a black hole and
// its tick an hour, so none can finish before the census (one that
// finished would be counted at the size of its report, not of its live
// state). The per-session bound (2 KB) is far under a goroutine pair's
// stacks and catches regressions like a per-session *rand.Rand (~5 KB)
// or inbox rings allocated up front (two 64-slot rings are 2 KB)
// immediately.
func TestLoopFlatMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory census in -short mode")
	}
	const n = 20000
	baseGoroutines := runtime.NumGoroutine()
	mux := NewMuxConfig(blackHole{NewInproc(0, nil)}, MuxConfig{EventSampleEvery: 1024})
	defer mux.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	x := seq.Seq{0, 1, 2, 3}
	var finished atomic.Int64
	sessions := make([]*Session, n)
	for i := range sessions {
		s, r, err := registry.Pair("alpha", zooParams, x)
		if err != nil {
			t.Fatalf("Pair: %v", err)
		}
		sess, err := mux.NewSession(SessionConfig{
			ID: uint64(i + 1), Sender: s, Receiver: r, Input: x,
			// An hour-scale tick keeps every session attached but inert:
			// the census measures resident state, not traffic.
			Tick: time.Hour,
		})
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		sessions[i] = sess
		mux.loop.start(context.Background(), sess, 0, func(*Session, Report) { finished.Add(1) })
	}
	// Let the workers attach everything, then census.
	time.Sleep(50 * time.Millisecond)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if f := finished.Load(); f != 0 {
		t.Fatalf("%d of %d sessions finished before the census, want 0: it would not measure live sessions", f, n)
	}

	perSession := float64(after.HeapInuse-before.HeapInuse) / n
	t.Logf("%d live idle loop sessions: %.0f B/session heap-in-use", n, perSession)
	if perSession > 2048 {
		t.Errorf("per-session heap %.0f B exceeds the 2 KB flat-memory bound", perSession)
	}
	// The mux is its workers (the black hole forwards Inproc's push, so
	// there is no router, and it has no goroutine of its own), whatever
	// the fleet's size.
	if g := runtime.NumGoroutine(); g > baseGoroutines+len(mux.loop.workers) {
		t.Errorf("%d goroutines for %d loop sessions (%d before the mux, %d workers): engine is not goroutine-free",
			g, n, baseGoroutines, len(mux.loop.workers))
	}
	runtime.KeepAlive(sessions)
}

// TestInboxSizeAndDropAccounting: a deliberately tiny inbox under a
// frame flood drops the overflow, and the drops surface both in the
// mux-wide inbox_full counter and in the session's own report — the
// observability contract that makes a small default safe to ship.
func TestInboxSizeAndDropAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	mux := newMux(discard{}, MuxConfig{Obs: reg}, true)
	x := seq.Seq{0, 1, 2, 3}
	s, r, err := registry.Pair("alpha", zooParams, x)
	if err != nil {
		t.Fatalf("Pair: %v", err)
	}
	sess, err := mux.NewSession(SessionConfig{
		ID: 1, Sender: s, Receiver: r, Input: x, Tick: time.Hour, InboxSize: 1,
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if q := &sess.receiverInbox; q.limit != 1 || len(*q.ring.Load()) != 1 {
		t.Fatalf("InboxSize 1 bounds the inbox at %d on a %d-slot ring", q.limit, len(*q.ring.Load()))
	}
	var rep Report
	mux.loop.start(context.Background(), sess, 0, func(_ *Session, r Report) { rep = r })
	// Flood the receiver inbox by hand, as one burst would arrive: no turn
	// of the worker drains it, so everything past the first frame drops.
	const flood = 64
	frame := EncodeFrame(Frame{Session: 1, Dir: channel.SToR, Msg: s.Alphabet().Msgs()[0]})
	frames := make([][]byte, flood)
	for i := range frames {
		frames[i] = frame
	}
	mux.arrive(ReceiverEnd, frames...)
	if drops := sess.inboxDrops.Load(); drops != flood-1 {
		t.Fatalf("%d inbox drops for a 1-slot inbox under a %d-frame flood, want %d", drops, flood, flood-1)
	}
	if got := reg.Snapshot().Counters[`wire_frames_dropped_total{cause="inbox_full"}`]; got != flood-1 {
		t.Errorf("mux inbox_full counter %d, want the session's %d drops", got, flood-1)
	}
	mux.Close()
	if rep.InboxDrops != flood-1 {
		t.Errorf("Report.InboxDrops = %d, want %d", rep.InboxDrops, flood-1)
	}
}

func contextWithTimeout(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// TestEventSampling: with EventSampleEvery set, only the sampled
// sessions' lifecycle events reach the bounded event ring, while the
// aggregate counters stay exact for the whole fleet.
func TestEventSampling(t *testing.T) {
	reg := obs.NewRegistry()
	cfgs := make([]SessionConfig, 8)
	for i := range cfgs {
		x := seq.Seq{0, 1}
		s, r, err := registry.Pair("alpha", zooParams, x)
		if err != nil {
			t.Fatalf("Pair: %v", err)
		}
		cfgs[i] = SessionConfig{
			ID: uint64(i + 1), Sender: s, Receiver: r, Input: x,
			Tick: 200 * time.Microsecond, Deadline: 30 * time.Second,
		}
	}
	reports, err := Serve(context.Background(), ServeConfig{
		Transport: NewInproc(0, reg), Sessions: cfgs, Obs: reg,
		EventSampleEvery: 4,
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	for _, rep := range reports {
		if !rep.Complete {
			t.Errorf("session %d incomplete", rep.ID)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["wire_sessions_completed_total"]; got != int64(len(cfgs)) {
		t.Errorf("completed counter = %d, want %d (aggregates must stay exact under sampling)", got, len(cfgs))
	}
	starts, ends := 0, 0
	for _, ev := range snap.Events {
		switch ev.Kind {
		case "wire.session.start":
			starts++
		case "wire.session.end":
			ends++
		}
	}
	// Ids 1..8 sampled every 4 → exactly ids 4 and 8 emit.
	if starts != 2 || ends != 2 {
		t.Errorf("sampled lifecycle events: %d starts, %d ends; want 2 and 2", starts, ends)
	}
}
