package wire

import (
	"context"
	"fmt"
	"runtime"
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
// same transitions the model checker's quotient alignment uses. Instants
// are engine-timeline nanoseconds.
func TestStabilizeAuditTransitions(t *testing.T) {
	in := seq.FromInts(4, 1, 3)
	a := &StabilizeAudit{input: in, align: seq.Align{Aligned: true}}
	if a.observe(4, 10) {
		t.Fatal("done after one of three items")
	}
	// Crash-restart the receiver: alignment drops and a window opens.
	a.onCrash(true, 100)
	if !a.seeking {
		t.Fatal("no recovery window after a crash")
	}
	a.observe(9, 110) // junk while seeking: bad write, not a post violation
	a.observe(1, 120) // tape value: candidate suffix restart, not bad
	if !a.observe(3, 150) {
		t.Fatal("aligned suffix reached the end; want done")
	}
	if a.badWrites != 1 || a.postViolations != 0 {
		t.Fatalf("bad=%d post=%d, want 1 and 0", a.badWrites, a.postViolations)
	}
	if len(a.stabTimes) != 1 || a.stabTimes[0] != 50 {
		t.Fatalf("stabilization episodes %v, want one of 50ns (crash at 100, locked at 150)", a.stabTimes)
	}

	// A bad write with no window open is a post-stabilization violation.
	b := &StabilizeAudit{input: in, align: seq.Align{Aligned: true}}
	b.observe(1, 10)
	if b.badWrites != 1 || b.postViolations != 1 {
		t.Fatalf("uncovered bad write: bad=%d post=%d, want 1 and 1", b.badWrites, b.postViolations)
	}
}

// serveScrambleBoth serves 8 stab sessions under the crash-scramble-both
// preset — live endpoint processes crash-restarted into seeded-arbitrary
// state mid-run.
func serveScrambleBoth(t *testing.T, reg *obs.Registry) ([]SessionConfig, []Report) {
	t.Helper()
	spec, err := faults.PresetSpec("crash-scramble-both")
	if err != nil {
		t.Fatalf("PresetSpec: %v", err)
	}
	cfgs, rebuild := stabConfigs(t, 8, 8, 6, 500*time.Microsecond)
	reports, err := Serve(context.Background(), ServeConfig{
		Transport: NewInproc(0, reg), Sessions: cfgs, Obs: reg,
		Chaos:   &ChaosConfig{Crashes: spec.Crashes, Seed: 7, Watchdog: 400 * time.Millisecond},
		Rebuild: rebuild,
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	return cfgs, reports
}

// restarts counts a fleet's crash and watchdog restarts.
func restarts(reports []Report) (crashes, scrambled, escalations int) {
	for _, rep := range reports {
		for _, ic := range rep.Chaos.Incarnations {
			switch ic.Ended {
			case "crash":
				crashes++
				if ic.Scrambled {
					scrambled++
				}
			case "watchdog":
				escalations++
			}
		}
	}
	return crashes, scrambled, escalations
}

// TestSupervisedScrambleRecovers is the wire tentpole's acceptance test:
// a fleet of stab sessions survives the crash-scramble-both preset with
// every tape delivered, zero post-stabilization violations, and the
// wire_stabilize_* metrics populated. Run with -race.
func TestSupervisedScrambleRecovers(t *testing.T) {
	reg := obs.NewRegistry()
	cfgs, reports := serveScrambleBoth(t, reg)
	for _, rep := range reports {
		c := rep.Chaos
		if c == nil {
			t.Fatalf("session %d: no chaos report from a supervised fleet", rep.ID)
		}
		if !rep.Complete {
			t.Errorf("session %d incomplete: %d incarnations, output %s",
				rep.ID, len(c.Incarnations), rep.Output)
		}
		if c.PostStabViolations != 0 {
			t.Errorf("session %d: %d post-stabilization violations", rep.ID, c.PostStabViolations)
		}
		if len(c.Incarnations) < 2 {
			t.Errorf("session %d: %d incarnations; the first scheduled crash never fired",
				rep.ID, len(c.Incarnations))
		}
		for k, ic := range c.Incarnations {
			if ic.Ended == "crash" && ic.RestartKey == "" {
				t.Errorf("session %d incarnation %d: no restart key", rep.ID, k)
			}
		}
		if rep.Complete && len(c.StabilizeTimes) == 0 && len(c.Incarnations) > 1 {
			t.Errorf("session %d recovered from crashes with no stabilization episode recorded", rep.ID)
		}
	}
	crashed, scrambledRestarts, _ := restarts(reports)
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

// TestSupervisedMetricsPerSession: a crashed incarnation is not a
// session. The per-session series count sessions whatever the chaos —
// every session completes once, none is unfinished, goodput is observed
// once each, every lifecycle event fires once — and only
// wire_stabilize_incarnations_total counts lives: one per session plus
// one per restart.
func TestSupervisedMetricsPerSession(t *testing.T) {
	reg := obs.NewRegistry()
	cfgs, reports := serveScrambleBoth(t, reg)
	n := int64(len(cfgs))
	crashes, _, escalations := restarts(reports)
	if crashes == 0 {
		t.Fatal("chaos did not bite: no crashes")
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"wire_sessions_completed_total":             n,
		"wire_sessions_unfinished_total":            0,
		"wire_stabilize_incarnations_total":         n + int64(crashes+escalations),
		"wire_stabilize_watchdog_escalations_total": int64(escalations),
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if h := snap.Histograms["wire_session_goodput_items_per_sec"]; h.Count != n {
		t.Errorf("goodput observed %d times for %d sessions", h.Count, n)
	}
	events := map[string]int64{}
	for _, ev := range snap.Events {
		events[ev.Kind]++
	}
	if events["wire.session.start"] != n || events["wire.session.end"] != n || events["wire.session.crash"] != int64(crashes) {
		t.Errorf("lifecycle events %v, want %d starts, %d ends, %d crashes", events, n, n, crashes)
	}
}

// TestSupervisedChaosDeterminism pins the replay contract: two runs
// with the same seed and config realize byte-identical crash schedules
// and restart states — equal digests, equal per-incarnation victims,
// corruption seeds, and state keys — and they are the digests the
// goroutine-per-session supervisor realized for this config before
// supervision moved onto the loop. The contract is about sessions that
// outlive the schedule, so the receiver crash comes at tick 8: session
// 2's sender restarts two items from the end, which take at least 4.5
// ticks (three timer copies an item, at 0.75 + 1.5 ticks at the
// earliest) and about 7, so it is still running then. The fleet runs as
// Serve runs it, on the manual engine over lagLink: its instants are the
// schedule's, not the host's, so a faster engine cannot outrun the crash.
func TestSupervisedChaosDeterminism(t *testing.T) {
	run := func() []Report {
		t.Helper()
		cfgs, rebuild := stabConfigs(t, 4, 8, 6, time.Millisecond)
		chaos := ChaosConfig{
			Crashes: []faults.CrashPoint{
				{Who: faults.Sender, At: []int{5}, Scramble: true},
				{Who: faults.Receiver, At: []int{8}, Scramble: true},
			},
			Seed:     42,
			Watchdog: 750 * time.Millisecond,
		}
		return serveLagged(t, cfgs, &chaosPlan{chaos, chaos.schedule(), rebuild}, 250*time.Microsecond)
	}
	pinned := []string{"7aa77f37bd60d4b5", "a5ecc6e1fc83e9f4", "c1a9124965172941", "f6effe34a30cfcaa"}
	ra, rb := run(), run()
	for i := range ra {
		id, a, b := ra[i].ID, ra[i].Chaos, rb[i].Chaos
		if a.PostStabViolations != 0 || b.PostStabViolations != 0 {
			t.Errorf("session %d: post-stabilization violations (%d, %d)",
				id, a.PostStabViolations, b.PostStabViolations)
		}
		if !ra[i].Complete || !rb[i].Complete {
			t.Errorf("session %d: incomplete (%v, %v)", id, ra[i].Complete, rb[i].Complete)
		}
		if got := fmt.Sprintf("%016x", a.CrashScheduleDigest); got != pinned[i] || len(a.Incarnations) != 3 {
			t.Errorf("session %d: digest %s over %d incarnations, want %s over 3\n%+v",
				id, got, len(a.Incarnations), pinned[i], a.Incarnations)
		}
		if a.CrashScheduleDigest != b.CrashScheduleDigest {
			t.Errorf("session %d: digests diverged: %x vs %x\nrun A: %+v\nrun B: %+v",
				id, a.CrashScheduleDigest, b.CrashScheduleDigest, a.Incarnations, b.Incarnations)
			continue
		}
		if len(a.Incarnations) != len(b.Incarnations) {
			t.Errorf("session %d: incarnation counts diverged: %d vs %d",
				id, len(a.Incarnations), len(b.Incarnations))
			continue
		}
		for k := range a.Incarnations {
			if ia, ib := a.Incarnations[k], b.Incarnations[k]; ia != ib {
				t.Errorf("session %d incarnation %d diverged:\nA: %+v\nB: %+v", id, k, ia, ib)
			}
		}
	}
}

// lagLink is a test transport on a manual engine's clock: it holds each
// frame an end ships for a fixed latency, in send order, until the
// driver (serveLagged) hands it to the other end's arrival.
type lagLink struct {
	clock   *int64
	latency int64
	held    []lagFrame
}

type lagFrame struct {
	due   int64
	to    End
	frame []byte
}

func (l *lagLink) Name() string           { return "lag" }
func (l *lagLink) Recv(End) <-chan []byte { return nil }
func (l *lagLink) Close() error           { return nil }

// Send implements Transport; the frame aliases the worker's chunk, so the
// link keeps a copy.
func (l *lagLink) Send(from End, frame []byte) error {
	l.held = append(l.held, lagFrame{*l.clock + l.latency, from.Opposite(), append([]byte(nil), frame...)})
	return nil
}

// serveLagged is Serve for a supervised fleet on a manual mux over a
// lagLink of the given latency: each turn the clock moves to the earlier
// of the worker's next timer and the next frame's delivery, the frames
// due by then arrive, and the worker turns. It returns the reports,
// index-aligned with cfgs.
func serveLagged(t *testing.T, cfgs []SessionConfig, plan *chaosPlan, latency time.Duration) []Report {
	t.Helper()
	link := &lagLink{latency: int64(latency)}
	mux, w := manualMux(t, link)
	link.clock = &mux.loop.clock
	reports, left := make([]Report, len(cfgs)), len(cfgs)
	for i, sc := range cfgs {
		s, err := mux.NewSession(sc)
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		s.index = i // Serve's report slot: the restart constructor's argument
		plan.supervise(s)
		if sc.Seed == 0 {
			s.cfg.Seed = s.sup.seed
		}
		mux.loop.start(context.Background(), s, 0, func(_ *Session, rep Report) { reports[i] = rep; left-- })
	}
	for w.turn(); left > 0; w.turn() {
		next := int64(noDeadline)
		if len(w.timers) > 0 {
			next = w.timers[0].at
		}
		if len(link.held) > 0 {
			next = min(next, link.held[0].due)
		}
		if next == noDeadline {
			t.Fatalf("%d sessions running with no timer and no frame in flight", left)
		}
		mux.loop.clock = max(mux.loop.clock, next)
		for len(link.held) > 0 && link.held[0].due <= mux.loop.clock {
			f := link.held[0]
			link.held = link.held[1:]
			mux.arrive(f.to, f.frame)
		}
	}
	return reports
}

// supervisedDetached starts one supervised stab session (6 items, m = 8,
// tick 1 ms, at instant 0) on a manual mux and attaches it, so the test
// fires its timers itself at the readings it chooses (fireAt) and is the
// receiver inbox's only producer.
func supervisedDetached(t *testing.T, chaos ChaosConfig, deadline time.Duration) (*loopWorker, *Session) {
	t.Helper()
	mux, w := manualMux(t, discard{})
	cfgs, rebuild := stabConfigs(t, 1, 8, 6, time.Millisecond)
	cfgs[0].Deadline = deadline
	s, err := mux.NewSession(cfgs[0])
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	(&chaosPlan{chaos, chaos.schedule(), rebuild}).supervise(s)
	mux.loop.start(context.Background(), s, 0, func(*Session, Report) {})
	w.turn()
	return w, s
}

// fireAt moves the worker's clock to now and fires its next timer entry
// there, due or not.
func fireAt(w *loopWorker, now int64) {
	w.eng.clock = now
	w.fire(w.timers.pop().s, now)
}

// TestRestartInPlace drives the restart event by hand, at chosen
// readings of the engine timeline.
func TestRestartInPlace(t *testing.T) {
	const tick = int64(time.Millisecond)
	crashR := ChaosConfig{Crashes: []faults.CrashPoint{{Who: faults.Receiver, At: []int{5}, Scramble: true}}, Seed: 3}

	// A crash replaces the victim and nothing else: the survivor's
	// machine, mid-tape, is the same object in the same state, the session
	// keeps its table slot, and the frames queued for the dead process
	// are gone.
	t.Run("survivor state carried across a crash", func(t *testing.T) {
		w, s := supervisedDetached(t, crashR, 0)
		for now := tick; now < 5*tick; now += tick {
			fireAt(w, now)
		}
		sender, receiver, key := s.cfg.Sender, s.cfg.Receiver, s.cfg.Sender.Key()
		s.receiverInbox.stage("d:0")
		s.receiverInbox.publish()
		fireAt(w, 5*tick)
		c := s.sup.rep
		if len(c.Incarnations) != 1 || c.Incarnations[0].Ended != "crash" || c.Incarnations[0].Victim != faults.Receiver ||
			c.Incarnations[0].AtTick != 5 || !c.Incarnations[0].Scrambled {
			t.Fatalf("incarnations after the crash reading: %+v", c.Incarnations)
		}
		if s.cfg.Receiver == receiver || c.Incarnations[0].RestartKey != s.cfg.Receiver.Key() {
			t.Error("the victim was not replaced by the process the record describes")
		}
		// The sender's attach step is a retransmission to a stab sender:
		// it sends and stays put.
		if s.cfg.Sender != sender || s.cfg.Sender.Key() != key {
			t.Errorf("survivor state %q before the crash, %q after", key, s.cfg.Sender.Key())
		}
		if got := s.receiverInbox.drain(nil); len(got) != 0 {
			t.Errorf("%d frames queued for the dead receiver survived it", len(got))
		}
		if s.mux.lookup(s.cfg.ID) != s || s.finished || !s.sup.audit.seeking {
			t.Error("the session did not stay registered and running, with a recovery window open")
		}
		if len(w.timers) != 1 || w.timers[0].at <= 5*tick {
			t.Errorf("heap after the restart: %+v, want one entry after the crash reading", w.timers)
		}
	})

	// The watchdog is a heap entry: a recovery window open with no write
	// for a whole interval restarts both processes clean.
	t.Run("watchdog escalation", func(t *testing.T) {
		chaos := crashR
		chaos.Watchdog = 20 * time.Millisecond
		w, s := supervisedDetached(t, chaos, 0)
		fireAt(w, 5*tick)
		if !s.sup.audit.seeking {
			t.Fatal("no recovery window after the crash")
		}
		// Nothing is delivered, so nothing is written: the ticks between
		// the crash and the expiry leave the window open.
		now := int64(0)
		for len(s.sup.rep.Incarnations) == 1 {
			if now = w.timers[0].at; now > 26*tick {
				t.Fatalf("no escalation by %v", time.Duration(now))
			}
			fireAt(w, now)
		}
		if want := 5*tick + int64(chaos.Watchdog); now != want {
			t.Errorf("escalated at %v, want the crash reading plus the interval, %v", time.Duration(now), time.Duration(want))
		}
		ic := s.sup.rep.Incarnations[1]
		cs, cr, err := s.sup.plan.rebuild(0)
		if err != nil {
			t.Fatal(err)
		}
		if ic.Ended != "watchdog" || ic.AtTick != -1 || ic.RestartKey != cs.Key()+"|"+cr.Key() {
			t.Errorf("escalation record %+v, want a watchdog restart into the clean pair %s|%s", ic, cs.Key(), cr.Key())
		}
		if s.cfg.Receiver.Key() != cr.Key() || s.sup.rep.WatchdogEscalations != 1 || s.finished {
			t.Errorf("after the escalation: receiver %q, %d escalations, finished=%v", s.cfg.Receiver.Key(), s.sup.rep.WatchdogEscalations, s.finished)
		}
	})

	// A crash due at the reading the incarnation's deadline expires at is
	// a crash: the session restarts with a fresh deadline, and only the
	// next expiry ends it.
	t.Run("crash before deadline", func(t *testing.T) {
		w, s := supervisedDetached(t, crashR, time.Duration(5*tick))
		var rep Report
		s.onDone = func(_ *Session, r Report) { rep = r }
		fireAt(w, 5*tick)
		if s.finished || len(s.sup.rep.Incarnations) != 1 || s.sup.rep.Incarnations[0].Ended != "crash" {
			t.Fatalf("finished=%v incarnations=%+v at a reading where crash and deadline are both due", s.finished, s.sup.rep.Incarnations)
		}
		if s.deadlineAt != 10*tick {
			t.Errorf("deadline re-armed at %v, want %v", time.Duration(s.deadlineAt), time.Duration(10*tick))
		}
		for !s.finished {
			fireAt(w, w.timers[0].at)
		}
		if rep.Complete || rep.Chaos == nil || len(rep.Chaos.Incarnations) != 2 || rep.Chaos.Incarnations[1].Ended != "deadline" {
			t.Errorf("report complete=%v chaos=%+v, want crash then deadline", rep.Complete, rep.Chaos)
		}
		if rep.Chaos.CrashScheduleDigest != digestIncarnations(rep.Chaos.Incarnations) {
			t.Error("digest does not cover the reported incarnations")
		}
	})
}

// TestSupervisedGoroutinesFlat: supervision adds no goroutines. A crash,
// a restart and a watchdog are timer events on the workers the mux
// already has, so a fleet of 2 000 supervised sessions mid-run shows the
// goroutine count of an idle mux — DESIGN §11's claim, which a
// goroutine and a watchdog per session used to break.
func TestSupervisedGoroutinesFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("2000-session fleet in -short mode")
	}
	spec, err := faults.PresetSpec("crash-scramble-both")
	if err != nil {
		t.Fatalf("PresetSpec: %v", err)
	}
	cfgs, rebuild := stabConfigs(t, 2000, 8, 6, time.Millisecond)
	before := runtime.NumGoroutine()
	done := make(chan []Report, 1)
	go func() {
		reports, err := Serve(context.Background(), ServeConfig{
			Transport: NewInproc(0, nil), Sessions: cfgs, EventSampleEvery: 256,
			Chaos:   &ChaosConfig{Crashes: spec.Crashes, Policy: RestartScramble, Seed: 11},
			Rebuild: rebuild,
		})
		if err != nil {
			t.Errorf("Serve: %v", err)
		}
		done <- reports
	}()
	peak := 0
	var reports []Report
	for reports == nil {
		select {
		case reports = <-done:
		case <-time.After(2 * time.Millisecond):
			peak = max(peak, runtime.NumGoroutine())
		}
	}
	if limit := before + runtime.GOMAXPROCS(0) + 16; peak == 0 || peak > limit {
		t.Errorf("%d goroutines at the peak of a 2000-session supervised fleet (%d before Serve), want 1..%d", peak, before, limit)
	}
	crashes, _, _ := restarts(reports)
	if crashes < len(cfgs) {
		t.Errorf("%d crashes over %d sessions: the sample did not see the fleet under chaos", crashes, len(cfgs))
	}
	for _, rep := range reports {
		if rep.Chaos.PostStabViolations != 0 {
			t.Errorf("session %d: %d post-stabilization violations", rep.ID, rep.Chaos.PostStabViolations)
		}
	}
}
