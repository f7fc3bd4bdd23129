package wire

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"seqtx/internal/faults"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
)

// This file is the live-runtime half of the self-stabilization story: a
// session supervisor that crash-restarts real endpoint processes mid-run
// on a seeded schedule, optionally restarting them into scrambled
// (seeded-arbitrary) local state — the wire analogue of the sim's
// scramble restart policy and the model checker's corrupted-root
// frontier. The same faults.CrashPoint schedule and the same
// faults.SubSeed derivation drive all three layers, so one preset name
// plus one seed means the same adversary everywhere.
//
// Because a scrambled restart legitimately produces transient bad
// writes, supervised sessions trade the strict online prefix audit for a
// StabilizeAudit: a suffix-alignment automaton (the same transition
// rules as the checker's quotient alignment) that counts bad writes,
// measures per-crash stabilization times, and flags only
// post-stabilization violations — a bad write landing while no recovery
// window is open — as genuine failures.

// StabilizeAudit judges a supervised session's writes across
// incarnations. It starts aligned at the head of the input; a matching
// write advances, a mismatching or out-of-tape write is a bad write that
// re-aligns to the written item's first occurrence (or drops alignment
// for junk). Crash-restarts open a seeking window: bad writes inside it
// are stabilization debt; the window locks closed — recording the
// stabilization time — after stabilizeLockWrites consecutive good
// writes (or an aligned end of tape), and bad writes OUTSIDE any window
// are post-stabilization violations — the chaos campaign's failure
// signal.
type StabilizeAudit struct {
	mu    sync.Mutex
	input seq.Seq

	pos      int
	aligned  bool
	seeking  bool
	seekGood int
	seekFrom time.Time

	writes         int64
	badWrites      int
	postViolations int
	stabTimes      []time.Duration
	done           bool
}

// stabilizeLockWrites is the hysteresis on closing a recovery window:
// one good write is weak evidence — a scrambled peer's stale in-flight
// frames can still force a bad write right after it — so the window
// locks only after this many consecutive good aligned writes. Three
// mirrors the stab protocol's c+1-copies counting argument at the
// default channel capacity: three consecutive consistent observations
// guarantee at least one is fresh.
const stabilizeLockWrites = 3

// NewStabilizeAudit builds the audit for one session's input tape.
func NewStabilizeAudit(input seq.Seq) *StabilizeAudit {
	return &StabilizeAudit{input: input.Clone(), aligned: true}
}

// observe judges one receiver write and reports whether the tape is
// done: aligned through the end with no recovery window open.
func (a *StabilizeAudit) observe(item seq.Item) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.writes++
	good, bad := false, false
	switch {
	case a.aligned && a.pos < len(a.input) && item == a.input[a.pos]:
		a.pos++
		good = true
	case a.aligned:
		// Mismatch or past-the-end while aligned: a bad write. A tape
		// value restarts a candidate suffix at its first occurrence —
		// the checker's re-alignment rule; junk drops alignment.
		bad = true
		if idx := a.firstIndex(item); idx >= 0 {
			a.pos = idx + 1
		} else {
			a.aligned = false
		}
	default:
		// Unaligned: a tape value starts a candidate suffix (not bad —
		// a cleanly restarted receiver rewriting the head lands here);
		// junk is another bad write.
		if idx := a.firstIndex(item); idx >= 0 {
			a.pos, a.aligned = idx+1, true
		} else {
			bad = true
		}
	}
	if bad {
		a.badWrites++
		a.seekGood = 0
		if !a.seeking {
			a.postViolations++
		}
	}
	if good && a.seeking {
		a.seekGood++
		// Lock the window after stabilizeLockWrites consecutive good
		// writes, or when an aligned suffix reaches the end of the tape
		// (no further writes can strengthen the evidence).
		if a.seekGood >= stabilizeLockWrites || a.pos == len(a.input) {
			a.seeking = false
			a.seekGood = 0
			a.stabTimes = append(a.stabTimes, time.Since(a.seekFrom))
		}
	}
	if a.aligned && !a.seeking && a.pos == len(a.input) {
		a.done = true
	}
	return a.done
}

func (a *StabilizeAudit) firstIndex(item seq.Item) int {
	for i, v := range a.input {
		if v == item {
			return i
		}
	}
	return -1
}

// onCrash opens a recovery window for a crash-restart. A receiver crash
// (amnesia or scramble) invalidates alignment — its write cursor is
// fresh or arbitrary, so its next writes start a new candidate suffix.
// An already-open window keeps its original start time, so overlapping
// crashes measure one combined stabilization episode.
func (a *StabilizeAudit) onCrash(receiver bool, now time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if receiver {
		a.aligned = false
	}
	a.seekGood = 0
	if !a.seeking {
		a.seeking = true
		a.seekFrom = now
	}
}

// Done reports whether the tape finished: aligned through the end.
func (a *StabilizeAudit) Done() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.done
}

// Writes returns the total write count (the watchdog's progress stamp).
func (a *StabilizeAudit) Writes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.writes
}

// Seeking reports whether a recovery window is open.
func (a *StabilizeAudit) Seeking() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seeking
}

// snapshot returns the final tallies.
func (a *StabilizeAudit) snapshot() (badWrites, postViolations int, stabTimes []time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.badWrites, a.postViolations, append([]time.Duration(nil), a.stabTimes...)
}

// RestartPolicy selects what state a crashed process restarts into.
type RestartPolicy int

// Restart policies.
const (
	// RestartPreset follows each crash point's own Scramble flag.
	RestartPreset RestartPolicy = iota
	// RestartAmnesia forces every restart into the initial state.
	RestartAmnesia
	// RestartScramble forces every restart into seeded-arbitrary state.
	RestartScramble
)

// String names the policy.
func (p RestartPolicy) String() string {
	switch p {
	case RestartAmnesia:
		return "amnesia"
	case RestartScramble:
		return "scramble"
	default:
		return "preset"
	}
}

// ParseRestartPolicy resolves a -restart-policy flag value.
func ParseRestartPolicy(s string) (RestartPolicy, error) {
	switch s {
	case "preset", "":
		return RestartPreset, nil
	case "amnesia":
		return RestartAmnesia, nil
	case "scramble":
		return RestartScramble, nil
	}
	return 0, fmt.Errorf("wire: unknown restart policy %q (have preset, amnesia, scramble)", s)
}

// ChaosConfig schedules crash-restarts for supervised sessions. The
// schedule is shared with the sim's fault plans: CrashPoint.At indices
// are interpreted as ticks from session start (the live counterpart of
// adversary steps), and scramble seeds derive from Seed via
// faults.SubSeed exactly as the lock-step scheduler derives them, per
// session and per crash.
type ChaosConfig struct {
	// Crashes is the schedule, typically faults.PresetSpec(name).Crashes.
	Crashes []faults.CrashPoint
	// Policy optionally overrides the schedule's per-point Scramble flags.
	Policy RestartPolicy
	// Seed is the chaos master seed; session ID and crash index are mixed
	// in per restart.
	Seed int64
	// Watchdog escalates a stuck recovery: if a session inside a recovery
	// window makes no write progress for this long, the supervisor
	// restarts BOTH processes into clean initial state (0 = 512 ticks).
	Watchdog time.Duration
	// MaxIncarnations caps the restart loop (0 = schedule length + 8).
	MaxIncarnations int
}

// crashEvent is one resolved schedule entry.
type crashEvent struct {
	who      faults.Process
	atTick   int
	scramble bool
}

// schedule expands and sorts the crash points, applying the policy
// override.
func (c ChaosConfig) schedule() []crashEvent {
	var evs []crashEvent
	for _, p := range c.Crashes {
		for _, at := range p.At {
			scramble := p.Scramble
			switch c.Policy {
			case RestartAmnesia:
				scramble = false
			case RestartScramble:
				scramble = true
			}
			evs = append(evs, crashEvent{who: p.Who, atTick: at, scramble: scramble})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].atTick < evs[j].atTick })
	return evs
}

// Incarnation records one supervised session lifetime and why it ended.
type Incarnation struct {
	// Index is the incarnation number, from 0.
	Index int
	// Ended is "crash", "watchdog", "done", "ctx", or "deadline".
	Ended string
	// Victim is the crashed process when Ended is "crash".
	Victim faults.Process
	// AtTick is the scheduled crash tick (-1 for watchdog escalations).
	AtTick int
	// Scrambled reports whether the restart landed in scrambled state.
	Scrambled bool
	// ScrambleSeed is the realized corruption seed (0 when not scrambled).
	ScrambleSeed int64
	// RestartKey is the restarted process state's canonical key — for a
	// watchdog escalation, both keys joined with "|".
	RestartKey string
	// Report is the incarnation's session report.
	Report Report
}

// SupervisedReport aggregates a session's incarnations.
type SupervisedReport struct {
	// ID is the session id.
	ID uint64
	// Input is the tape X.
	Input seq.Seq
	// Output concatenates every incarnation's writes.
	Output seq.Seq
	// Complete reports the audit reached aligned end-of-tape.
	Complete bool
	// Incarnations lists the lifetimes in order.
	Incarnations []Incarnation
	// CrashScheduleDigest hashes the realized crash schedule and restart
	// state keys; equal seeds and configs produce equal digests.
	CrashScheduleDigest uint64
	// BadWrites counts suffix-misaligned writes across the whole run.
	BadWrites int
	// PostStabViolations counts bad writes outside every recovery window
	// — the chaos campaign's genuine safety failures.
	PostStabViolations int
	// StabilizeTimes are the per-recovery-window stabilization times.
	StabilizeTimes []time.Duration
	// WatchdogEscalations counts forced clean restarts.
	WatchdogEscalations int
	// Elapsed is the supervised run's total wall-clock life.
	Elapsed time.Duration
	// FramesTx, AcksTx, Retransmits sum across incarnations.
	FramesTx    int
	AcksTx      int
	Retransmits int
}

// Supervise runs one session under crash-restart supervision: each
// incarnation runs until the next scheduled crash (or completion, the
// watchdog, or ctx), then the victim process is rebuilt — into initial
// state, or scrambled per the schedule — while the surviving process
// carries its live state into the next incarnation. rebuild must return
// a fresh initial-state process pair.
func Supervise(ctx context.Context, mux *Mux, cfg SessionConfig,
	rebuild func() (protocol.Sender, protocol.Receiver, error),
	chaos ChaosConfig) (SupervisedReport, error) {

	if rebuild == nil {
		return SupervisedReport{}, fmt.Errorf("wire: supervise needs a rebuild constructor")
	}
	if cfg.Sender == nil || cfg.Receiver == nil {
		return SupervisedReport{}, fmt.Errorf("wire: session %d missing processes", cfg.ID)
	}
	if cfg.Tick <= 0 {
		cfg.Tick = DefaultTick
	}
	sessSeed := faults.SubSeed(chaos.Seed, cfg.ID)
	if cfg.Seed == 0 {
		cfg.Seed = sessSeed
	}
	events := chaos.schedule()
	watchdog := chaos.Watchdog
	if watchdog <= 0 {
		watchdog = 512 * cfg.Tick
	}
	maxInc := chaos.MaxIncarnations
	if maxInc <= 0 {
		maxInc = len(events) + 8
	}
	audit := NewStabilizeAudit(cfg.Input)
	cfg.Stabilize = audit
	met := mux.met
	// A sender half (cluster client) hosts no receiver, so the audit
	// never observes writes: its completion verdict is the session
	// report's (the local S transmitted its tape and holds every ack),
	// and crash recovery windows stay closed — the output tape, and
	// with it the stabilization accounting, lives on the peer node.
	senderHalf := cfg.Half == SenderEnd

	srep := SupervisedReport{ID: cfg.ID, Input: cfg.Input.Clone()}
	sender, receiver := cfg.Sender, cfg.Receiver
	start := time.Now()
	next := 0 // next scheduled crash event
	for inc := 0; inc < maxInc; inc++ {
		sc := cfg
		sc.Sender, sc.Receiver = sender, receiver
		s, err := mux.NewSession(sc)
		if err != nil {
			srep.Elapsed = time.Since(start)
			return srep, err
		}
		met.stabIncarnations.Inc()

		ictx := ctx
		var cancelCrash context.CancelFunc
		var ev *crashEvent
		var crashAt time.Time
		if next < len(events) {
			ev = &events[next]
			crashAt = start.Add(time.Duration(ev.atTick) * sc.Tick)
			ictx, cancelCrash = context.WithDeadline(ctx, crashAt)
		}
		wctx, wcancel := context.WithCancel(ictx)
		var escalate atomic.Bool
		stop := make(chan struct{})
		var wwg sync.WaitGroup
		wwg.Add(1)
		go func() {
			// Watchdog: escalate when a recovery window stays open with no
			// write progress for a full watchdog interval.
			defer wwg.Done()
			interval := watchdog / 4
			if interval <= 0 {
				interval = watchdog
			}
			t := time.NewTicker(interval)
			defer t.Stop()
			lastWrites := audit.Writes()
			lastChange := time.Now()
			for {
				select {
				case <-stop:
					return
				case <-wctx.Done():
					return
				case <-t.C:
					if cur := audit.Writes(); cur != lastWrites {
						lastWrites, lastChange = cur, time.Now()
						continue
					}
					if audit.Seeking() && time.Since(lastChange) >= watchdog {
						escalate.Store(true)
						wcancel()
						return
					}
				}
			}
		}()

		rep := s.Run(wctx)
		close(stop)
		wcancel()
		if cancelCrash != nil {
			cancelCrash()
		}
		wwg.Wait()

		irec := Incarnation{Index: inc, AtTick: -1, Report: rep}
		srep.Output = append(srep.Output, rep.Output...)
		srep.FramesTx += rep.FramesTx
		srep.AcksTx += rep.AcksTx
		srep.Retransmits += rep.Retransmits
		now := time.Now()

		if audit.Done() || (senderHalf && rep.Complete) {
			irec.Ended = "done"
			srep.Incarnations = append(srep.Incarnations, irec)
			srep.Complete = true
			break
		}
		if ctx.Err() != nil {
			irec.Ended = "ctx"
			srep.Incarnations = append(srep.Incarnations, irec)
			break
		}
		if escalate.Load() {
			// Watchdog escalation: a stuck recovery (a scrambled process
			// wedged past the end of its tape, say) is resolved the way a
			// supervision tree resolves it — restart the whole pair clean.
			ns, nr, rerr := rebuild()
			if rerr != nil {
				srep.Incarnations = append(srep.Incarnations, irec)
				srep.Elapsed = time.Since(start)
				return srep, rerr
			}
			sender, receiver = ns, nr
			audit.onCrash(true, now)
			irec.Ended = "watchdog"
			irec.RestartKey = sender.Key() + "|" + receiver.Key()
			srep.Incarnations = append(srep.Incarnations, irec)
			srep.WatchdogEscalations++
			met.stabEscalations.Inc()
			if mux.sampled(cfg.ID) {
				met.reg.Emit("wire.session.watchdog",
					"session", strconv.FormatUint(cfg.ID, 10),
					"incarnation", strconv.Itoa(inc))
			}
			continue
		}
		if ev != nil && !now.Before(crashAt) {
			// The scheduled crash fired: rebuild the victim; the survivor
			// keeps its live state across the incarnation boundary.
			lane := uint64(next)
			next++
			ns, nr, rerr := rebuild()
			if rerr != nil {
				srep.Incarnations = append(srep.Incarnations, irec)
				srep.Elapsed = time.Since(start)
				return srep, rerr
			}
			var victim interface{ Key() string }
			if ev.who == faults.Sender {
				sender, victim = ns, ns
			} else {
				receiver, victim = nr, nr
			}
			irec.Ended = "crash"
			irec.Victim = ev.who
			irec.AtTick = ev.atTick
			if ev.scramble {
				irec.ScrambleSeed = faults.SubSeed(sessSeed, lane)
				irec.Scrambled = protocol.ScrambleState(victim, irec.ScrambleSeed)
			}
			irec.RestartKey = victim.Key()
			if !senderHalf {
				audit.onCrash(ev.who == faults.Receiver, now)
			}
			srep.Incarnations = append(srep.Incarnations, irec)
			if mux.sampled(cfg.ID) {
				met.reg.Emit("wire.session.crash",
					"session", strconv.FormatUint(cfg.ID, 10),
					"victim", ev.who.String(),
					"scrambled", strconv.FormatBool(irec.Scrambled))
			}
			continue
		}
		// Ended on its own (per-incarnation deadline) with no crash due:
		// the session gave up.
		irec.Ended = "deadline"
		srep.Incarnations = append(srep.Incarnations, irec)
		break
	}

	bad, post, times := audit.snapshot()
	srep.BadWrites = bad
	srep.PostStabViolations = post
	srep.StabilizeTimes = times
	for _, t := range times {
		met.stabTime.Observe(t.Seconds())
	}
	if bad > 0 {
		met.stabBadWrites.Add(int64(bad))
	}
	if post > 0 {
		met.stabPostViol.Add(int64(post))
	}
	srep.Elapsed = time.Since(start)
	srep.CrashScheduleDigest = digestIncarnations(srep.Incarnations)
	return srep, nil
}

// digestIncarnations hashes the realized crash schedule: for each
// incarnation, how it ended, the victim, the scheduled tick, the
// scramble seed, and the exact restart state key. Two runs with the same
// seed and config realize the same schedule, so equal digests certify
// byte-identical crash schedules and restart states.
func digestIncarnations(incs []Incarnation) uint64 {
	h := fnv.New64a()
	var b [8]byte
	u := func(v uint64) { binary.LittleEndian.PutUint64(b[:], v); h.Write(b[:]) }
	for _, ic := range incs {
		h.Write([]byte(ic.Ended))
		u(uint64(ic.Victim))
		u(uint64(int64(ic.AtTick)))
		u(uint64(ic.ScrambleSeed))
		if ic.Scrambled {
			u(1)
		} else {
			u(0)
		}
		h.Write([]byte(ic.RestartKey))
	}
	return h.Sum64()
}

// ChaosServeConfig describes a supervised fleet: a ServeConfig plus the
// crash schedule and the per-session restart constructors.
type ChaosServeConfig struct {
	ServeConfig
	// Chaos is the shared crash schedule (session seeds derive from
	// Chaos.Seed and each session's ID).
	Chaos ChaosConfig
	// Rebuild returns a fresh initial-state process pair for session
	// index i (index into Sessions).
	Rebuild func(i int) (protocol.Sender, protocol.Receiver, error)
}

// ServeSupervised is Serve with crash-restart supervision: every session
// runs under Supervise with the shared chaos schedule. Reports are
// index-aligned with cfg.Sessions; the error covers setup failures only.
func ServeSupervised(ctx context.Context, cfg ChaosServeConfig) ([]SupervisedReport, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("wire: serve needs a transport")
	}
	if len(cfg.Sessions) == 0 {
		return nil, fmt.Errorf("wire: serve needs at least one session")
	}
	if cfg.Rebuild == nil {
		return nil, fmt.Errorf("wire: supervised serve needs a rebuild constructor")
	}
	mux := NewMuxConfig(cfg.Transport, MuxConfig{
		Obs:              cfg.Obs,
		EventSampleEvery: cfg.EventSampleEvery,
	})
	reports := make([]SupervisedReport, len(cfg.Sessions))
	errs := make([]error, len(cfg.Sessions))
	var wg sync.WaitGroup
	wg.Add(len(cfg.Sessions))
	for i, sc := range cfg.Sessions {
		go func(i int, sc SessionConfig) {
			defer wg.Done()
			reports[i], errs[i] = Supervise(ctx, mux, sc,
				func() (protocol.Sender, protocol.Receiver, error) { return cfg.Rebuild(i) },
				cfg.Chaos)
		}(i, sc)
	}
	wg.Wait()
	cerr := mux.Close()
	for _, e := range errs {
		if e != nil {
			return reports, e
		}
	}
	if cerr != nil {
		return reports, fmt.Errorf("wire: closing transport: %w", cerr)
	}
	return reports, nil
}
