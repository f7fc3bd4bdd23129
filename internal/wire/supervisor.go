package wire

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"time"

	"seqtx/internal/faults"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
)

// This file is the live-runtime half of the self-stabilization story:
// crash-restart supervision of real endpoint processes on a seeded
// schedule, optionally restarting them into scrambled (seeded-arbitrary)
// local state — the wire analogue of the sim's scramble restart policy
// and the model checker's corrupted-root frontier. The same
// faults.CrashPoint schedule and the same faults.SubSeed derivation drive
// all three layers, so one preset name plus one seed means the same
// adversary everywhere.
//
// A crash is one more event in a session's run, not a second runtime
// around it: a supervised session is a plain Session whose pinned worker
// also holds its crash schedule, audit and watchdog instant (supervision),
// and the next crash and the watchdog are timer-heap entries like the tick
// and the deadline. Nothing here starts a goroutine or reads a clock.
//
// Because a scrambled restart legitimately produces transient bad
// writes, supervised sessions trade the strict online prefix audit for a
// StabilizeAudit: the suffix-alignment automaton the checker's quotient
// states carry (seq.Align), around which it counts bad writes, measures
// per-crash stabilization times, and flags only post-stabilization
// violations — a bad write landing while no recovery window is open — as
// genuine failures.

// StabilizeAudit judges a supervised session's writes across
// incarnations. It starts aligned at the head of the input and judges
// each write with seq.Align.Step. Crash-restarts open a seeking window:
// bad writes inside it are stabilization debt; the window locks closed —
// recording the stabilization time — after stabilizeLockWrites
// consecutive good writes (or an aligned end of tape), and bad writes
// OUTSIDE any window are post-stabilization violations — the chaos
// campaign's failure signal. It is owned by the session's worker; instants are nanoseconds
// on the engine timeline.
type StabilizeAudit struct {
	input seq.Seq

	align    seq.Align
	seeking  bool
	seekGood int
	seekFrom int64

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

// observe judges one receiver write made at now and reports whether the
// tape is done: aligned through the end with no recovery window open.
func (a *StabilizeAudit) observe(item seq.Item, now int64) bool {
	was := a.align
	var bad bool
	a.align, bad = was.Step(item, a.input)
	// A good write continues an aligned suffix; an unaligned tape value
	// only starts a candidate one (a cleanly restarted receiver rewriting
	// the head lands there) and is neither good nor bad.
	good := was.Aligned && !bad
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
		if a.seekGood >= stabilizeLockWrites || a.align.Converged(a.input) {
			a.seeking = false
			a.seekGood = 0
			a.stabTimes = append(a.stabTimes, time.Duration(now-a.seekFrom))
		}
	}
	if !a.seeking && a.align.Converged(a.input) {
		a.done = true
	}
	return a.done
}

// onCrash opens a recovery window for a crash-restart. A receiver crash
// (amnesia or scramble) invalidates alignment — its write cursor is
// fresh or arbitrary, so its next writes start a new candidate suffix.
// An already-open window keeps its original start time, so overlapping
// crashes measure one combined stabilization episode.
func (a *StabilizeAudit) onCrash(receiver bool, now int64) {
	if receiver {
		a.align.Aligned = false
	}
	a.seekGood = 0
	if !a.seeking {
		a.seeking = true
		a.seekFrom = now
	}
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
}

// spareIncarnations is how many lives past its crash schedule a session
// is given before supervision gives up on it: room for watchdog
// escalations, and the bound on a protocol that never stabilizes.
const spareIncarnations = 8

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

// Incarnation records one stretch of a supervised session's life — from
// its start, or the previous restart, to the event that ended it.
type Incarnation struct {
	// Ended is "crash", "watchdog", "done", "ctx", or "deadline".
	Ended string
	// Victim is the crashed process when Ended is "crash".
	Victim faults.Process
	// AtTick is the scheduled crash tick (-1 for anything but a crash).
	AtTick int
	// Scrambled reports whether the restart landed in scrambled state.
	Scrambled bool
	// ScrambleSeed is the realized corruption seed (0 when not scrambled).
	ScrambleSeed int64
	// RestartKey is the restarted process state's canonical key — for a
	// watchdog escalation, both keys joined with "|".
	RestartKey string
}

// ChaosReport is the crash-restart half of a supervised session's Report,
// whose Output holds every incarnation's writes, whose Complete is the
// audit's verdict (aligned end of tape), and whose counts span the life.
type ChaosReport struct {
	// Incarnations lists the lifetimes in order.
	Incarnations []Incarnation
	// CrashScheduleDigest hashes the realized crash schedule and restart
	// state keys. On the manual engine equal seeds and configs produce
	// equal digests; on a live one the schedule depends on timing.
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
	// Err is the restart constructor's failure, if it ended the session.
	Err error
}

// chaosPlan is what the sessions of one supervised fleet share: the
// config, its resolved schedule and the restart constructor.
type chaosPlan struct {
	ChaosConfig
	events  []crashEvent
	rebuild func(i int) (protocol.Sender, protocol.Receiver, error)
}

// supervision is a supervised session's chaos state. Like the rest of
// the session's run state it is touched only by the pinned worker.
type supervision struct {
	plan *chaosPlan
	seed int64 // faults.SubSeed(chaos seed, session id): its scramble seeds' parent
	next int   // the schedule entry not yet fired
	// watchdog is the escalation interval, measured from progressAt, the
	// instant of the latest write or restart.
	watchdog   int64
	progressAt int64
	audit      StabilizeAudit
	rep        ChaosReport
}

// supervise puts a registered, not yet started session under the plan.
func (p *chaosPlan) supervise(s *Session) {
	watchdog := p.Watchdog
	if watchdog <= 0 {
		watchdog = 512 * s.cfg.Tick
	}
	s.sup = &supervision{
		plan:     p,
		seed:     faults.SubSeed(p.Seed, s.cfg.ID),
		watchdog: int64(watchdog),
		audit:    StabilizeAudit{input: s.cfg.Input, align: seq.Align{Aligned: true}},
	}
}

// wake is the earliest instant supervision needs the worker: the next
// scheduled crash — CrashPoint.At counts ticks from the session's start
// — or, while a recovery window is open, the watchdog.
func (c *supervision) wake(s *Session) int64 {
	at := int64(noDeadline)
	if c.next < len(c.plan.events) {
		at = s.startAt + int64(c.plan.events[c.next].atTick)*int64(s.cfg.Tick)
	}
	if c.audit.seeking {
		at = min(at, c.progressAt+c.watchdog)
	}
	return at
}

// restart is the crash-restart event, run by fire at a reading now at
// which wake is due. A scheduled crash rebuilds the victim — into initial
// state, or scrambled per the schedule — while the survivor carries its
// live state across; a watchdog expiry (a scrambled process wedged past
// the end of its tape, say) is resolved as a supervision tree would, by
// restarting the whole pair clean. The session itself stays — table slot,
// output tape, counters, audit, the survivor's state and inbox — and what
// the dead process held goes: its state, the frames queued for it, the
// retransmission memory and any open round-trip probe. The new
// incarnation then starts as a session does: fresh deadline, tick phase
// and backoff, the sender's attach step. The worker's round-trip estimate
// stays: it measures the worker's queue, not the incarnation.
func (w *loopWorker) restart(s *Session, now int64) {
	c := s.sup
	ns, nr, err := c.plan.rebuild(s.index)
	if err != nil {
		c.rep.Err = err
		w.finish(s)
		return
	}
	rec := Incarnation{AtTick: -1}
	if c.audit.seeking && now >= c.progressAt+c.watchdog {
		s.cfg.Sender, s.cfg.Receiver = ns, nr
		w.batch = s.senderInbox.drain(w.batch)
		w.batch = s.receiverInbox.drain(w.batch)
		c.audit.onCrash(true, now)
		rec.Ended = "watchdog"
		rec.RestartKey = ns.Key() + "|" + nr.Key()
		c.rep.WatchdogEscalations++
		if s.mux.sampled(s.cfg.ID) {
			s.mux.met.reg.Emit("wire.session.watchdog",
				"session", strconv.FormatUint(s.cfg.ID, 10),
				"incarnation", strconv.Itoa(len(c.rep.Incarnations)))
		}
	} else {
		ev := c.plan.events[c.next]
		lane := uint64(c.next)
		c.next++
		var victim interface{ Key() string }
		if ev.who == faults.Sender {
			s.cfg.Sender, victim = ns, ns
			w.batch = s.senderInbox.drain(w.batch)
		} else {
			s.cfg.Receiver, victim = nr, nr
			w.batch = s.receiverInbox.drain(w.batch)
		}
		rec.Ended, rec.Victim, rec.AtTick = "crash", ev.who, ev.atTick
		if ev.scramble {
			rec.ScrambleSeed = faults.SubSeed(c.seed, lane)
			rec.Scrambled = protocol.ScrambleState(victim, rec.ScrambleSeed)
		}
		rec.RestartKey = victim.Key()
		// A sender half (cluster client) hosts no receiver: its audit sees
		// no write, so a window opened here could never close. The tape,
		// and with it the stabilization accounting, lives on the peer node.
		if s.cfg.Half != SenderEnd {
			c.audit.onCrash(ev.who == faults.Receiver, now)
		}
		if s.mux.sampled(s.cfg.ID) {
			s.mux.met.reg.Emit("wire.session.crash",
				"session", strconv.FormatUint(s.cfg.ID, 10),
				"victim", ev.who.String(),
				"scrambled", strconv.FormatBool(rec.Scrambled))
		}
	}
	c.rep.Incarnations = append(c.rep.Incarnations, rec)
	if len(c.rep.Incarnations) == len(c.plan.events)+spareIncarnations {
		w.finish(s) // out of lives: the restart just recorded is its last word
		return
	}
	c.progressAt = now
	s.haveLast, s.lastRetransmitAt = false, 0
	s.arm(now)
	if s.runsSender() {
		if room := s.cfg.InboxSize; !w.fill(s, &room, now) {
			w.finish(s)
			return
		}
	}
	w.timers.push(s.nextWake(), s)
}

// conclude closes the supervision as the session finishes at now: the
// last incarnation's record, the audit's tallies and the digest.
func (c *supervision) conclude(s *Session, now int64) *ChaosReport {
	if n := len(c.rep.Incarnations); n < len(c.plan.events)+spareIncarnations {
		// Neither done nor cancelled: it gave up (deadline, transport closed).
		ended := "deadline"
		switch {
		case s.complete:
			ended = "done"
		case s.cancelReq.Load() || now >= s.ctxDeadline:
			ended = "ctx"
		}
		c.rep.Incarnations = append(c.rep.Incarnations, Incarnation{Ended: ended, AtTick: -1})
	}
	c.rep.BadWrites = c.audit.badWrites
	c.rep.PostStabViolations = c.audit.postViolations
	c.rep.StabilizeTimes = c.audit.stabTimes
	c.rep.CrashScheduleDigest = digestIncarnations(c.rep.Incarnations)
	return &c.rep
}

// digestIncarnations hashes the realized crash schedule: for each
// incarnation, how it ended, the victim, the scheduled tick, the
// scramble seed, and the exact restart state key. Equal digests certify
// byte-identical crash schedules and restart states. Two manual-engine
// runs with the same seed and config realize the same schedule; live
// runs need not, since when a crash lands depends on timing.
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
