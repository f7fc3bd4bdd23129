package wire

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/trace"
)

// DefaultTick is the timer interval used when SessionConfig.Tick is not
// positive: the receiver's pacing edge, and the retransmission timeout's
// initial value and ceiling (rttEstimate.rto). It is not the send clock —
// fresh sends follow acknowledged progress (loopWorker.service).
const DefaultTick = time.Millisecond

// DefaultInboxSize buffers inbound messages per process when
// SessionConfig.InboxSize is not positive. A full inbox drops frames
// (counted per mux and per session), which the protocols tolerate as
// channel loss. 64 slots absorb a full stop-and-wait retransmission
// burst with room to spare; traffic-heavy fleets can raise it per session.
// The bound costs nothing until a burst needs it: each inbox starts on a
// 4-slot ring inline in the Session and grows to its bound once, at its
// first burst of more than four. A live idle session measures ≈ 1.2 KB in
// all (TestLoopFlatMemory), its two inboxes 352 B of that.
const DefaultInboxSize = 64

// SessionConfig describes one transfer session: a sender/receiver pair
// (typically from registry.Pair), the input tape to transmit, and pacing.
type SessionConfig struct {
	// ID is the session's wire identity; unique per mux.
	ID uint64
	// Sender and Receiver are the protocol processes this session hosts.
	Sender protocol.Sender
	// Receiver is R; its writes build the session's output tape.
	Receiver protocol.Receiver
	// Input is the tape X the sender was built from.
	Input seq.Seq
	// Tick is the timer interval (DefaultTick when not positive): the
	// receiver's pacing and the measured retransmission timeout's initial
	// value and ceiling, no more.
	Tick time.Duration
	// Deadline, when positive, bounds the session's wall-clock life; an
	// expired session reports Complete=false (never a safety verdict).
	Deadline time.Duration
	// Seed feeds the session's deterministic jitter streams (retransmit
	// backoff, tick phase). Zero derives a per-session default from ID.
	Seed int64
	// InboxSize bounds each direction's inbound queue (rounded up to a
	// power of two; DefaultInboxSize when not positive). A full inbox
	// drops frames, surfaced in Report.InboxDrops.
	InboxSize int
	// Half, when non-zero, runs only that end's process locally: the
	// opposite process lives in a remote node reached through a
	// peer-addressed transport (wire.UDPPeer), which is how the cluster
	// runtime splits one session across machines. Both machine objects
	// are still required — the remote side's alphabet drives the
	// receive-side enforcement — but only the Half end's machine is ever
	// stepped here. A sender half completes when Sender.Done() reports
	// quiescence; a receiver half keeps the usual tape audit (it knows X
	// from the coordinator's seed). Zero runs both ends in-process.
	Half End
}

// Report is one session's outcome. Input is the config's own tape
// (SessionConfig.Input, not a copy). Output and LearnTimes are the
// finished session's tapes, handed over uncopied; under Serve they are
// windows of one slab a wave, each capped at its session's input length,
// so an append to one report's tape reallocates and never reaches
// another's.
type Report struct {
	// ID is the session id.
	ID uint64
	// Input is the tape X given to the sender: SessionConfig.Input itself.
	Input seq.Seq
	// Output is the tape Y the receiver wrote.
	Output seq.Seq
	// Complete reports Y = X.
	Complete bool
	// SafetyViolation is the first "Y not a prefix of X" error, if any.
	SafetyViolation error
	// Elapsed is the session's wall-clock life (start to completion,
	// violation, or shutdown).
	Elapsed time.Duration
	// FramesTx counts sender→receiver frames put on the wire.
	FramesTx int
	// AcksTx counts receiver→sender frames put on the wire.
	AcksTx int
	// Retransmits counts consecutive re-sends of the same data message
	// (for stop-and-wait protocols, exactly the paper's retransmissions).
	Retransmits int
	// InboxDrops counts inbound frames dropped because this session's
	// inbox was full — the observable cost of a small InboxSize, which
	// the protocols absorb as channel loss.
	InboxDrops int
	// LearnTimes[i] is the wall-clock time at which Y first had length
	// i+1 — the live counterpart of the paper's t_i.
	LearnTimes []time.Duration
	// GoodputItemsPerSec is len(Output)/Elapsed.
	GoodputItemsPerSec float64
	// Chaos is the crash-restart record of a session served under
	// ServeConfig.Chaos; nil for a plain one.
	Chaos *ChaosReport
}

// Session is one live transfer: a sender and a receiver step machine
// exchanging frames through the mux. The event loop runs both machines
// inline on the session's pinned worker, so each protocol state machine
// is touched by exactly one goroutine, and inbound messages arrive
// through burst inboxes (one staged write per message, one publish per
// burst).
type Session struct {
	cfg SessionConfig
	mux *Mux

	senderAlphabet   msg.Alphabet
	receiverAlphabet msg.Alphabet

	senderInbox   inbox
	receiverInbox inbox

	// rxCache is a one-entry decode cache per inbound direction (index 0
	// feeds the receiver inbox, 1 the sender inbox), each owned by the
	// holder of that end's arrival lock. STP traffic is
	// retransmission-heavy — the same data message or acknowledgement
	// arrives many times in a row — so remembering the last message turns
	// the common repeat into a byte compare instead of an alphabet-map
	// probe. The message is its own payload's bytes, so the entry keeps
	// only it: interned from the alphabet, or the one copy of a payload
	// outside any alphabet (Stenning's).
	rxCache [2]struct {
		mg  msg.Msg
		set bool
	}

	// inboxDrops counts this session's inbox-full frame drops. Written
	// under either end's arrival lock, read at report time — the only
	// session counter crossing goroutines, hence the only atomic one.
	inboxDrops atomic.Int64

	// Sender-machine state, touched only by the session's pinned worker.
	bo               backoff
	last             msg.Msg
	haveLast         bool
	lastRetransmitAt int64 // engine timeline; 0 = none yet
	probeAt          int64 // engine timeline: the open round-trip probe's send; noProbe = none

	// Outcome state, written by the step machines before the report is
	// built (the worker's single-threaded service is the happens-before
	// edge).
	framesTx    int
	acksTx      int
	retransmits int
	output      seq.Seq
	learnTimes  []time.Duration
	violation   error
	complete    bool

	// Event-loop state. loopLive, scheduled, and cancelReq are the only
	// fields other goroutines touch while the loop runs the session;
	// everything else below is owned by the pinned worker (loopEngine.start
	// writes it before the first schedule publishes it). startAt,
	// ctxDeadline, deadlineAt and tickNext are instants on the engine
	// timeline (loopEngine.now).
	loopLive  atomic.Bool
	scheduled atomic.Bool
	cancelReq atomic.Bool
	worker    *loopWorker

	startAt     int64
	ctxDeadline int64
	deadlineAt  int64
	tickNext    int64
	attached    bool
	finished    bool
	onDone      func(*Session, Report)

	// index is the session's position in ServeConfig.Sessions: its report
	// slot and, under supervision, the restart constructor's argument.
	index int

	// sup is the crash-restart supervision of a session served under
	// ServeConfig.Chaos (supervisor.go); nil for a plain one.
	sup *supervision

	// script, when non-nil, receives the model action of every step the
	// session takes, in order (DetRun's schedule); nil on the live path.
	script *[]trace.Action
}

// NewSession registers a session on the mux. The session does not run
// until Serve or Run hands it to the event loop.
func (m *Mux) NewSession(cfg SessionConfig) (*Session, error) {
	s := new(Session)
	if err := m.initSession(s, cfg, make(seq.Seq, 0, len(cfg.Input)), make([]time.Duration, 0, len(cfg.Input))); err != nil {
		return nil, err
	}
	return s, nil
}

// initSession validates cfg, fills in the zero session s and registers
// it: the one construction path of NewSession and Serve, which carves s
// and its tapes from wave slabs. output and learnTimes are the empty
// tapes the receiver's writes land in; an append past their capacity
// reallocates, so a window's end is a wall, not a neighbour.
func (m *Mux) initSession(s *Session, cfg SessionConfig, output seq.Seq, learnTimes []time.Duration) error {
	if cfg.Sender == nil || cfg.Receiver == nil {
		return fmt.Errorf("wire: session %d missing processes", cfg.ID)
	}
	if cfg.Half != 0 && cfg.Half != SenderEnd && cfg.Half != ReceiverEnd {
		return fmt.Errorf("wire: session %d bad half end %d", cfg.ID, int(cfg.Half))
	}
	if cfg.Tick <= 0 {
		cfg.Tick = DefaultTick
	}
	if cfg.Seed == 0 {
		cfg.Seed = int64(cfg.ID) + 1 // jitter stream still deterministic per session
	}
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = DefaultInboxSize
	}
	s.cfg = cfg
	s.mux = m
	s.senderAlphabet = cfg.Sender.Alphabet()
	s.receiverAlphabet = cfg.Receiver.Alphabet()
	s.output = output
	s.learnTimes = learnTimes
	s.senderInbox.init(cfg.InboxSize)
	s.receiverInbox.init(cfg.InboxSize)
	s.senderInbox.owner = s
	s.receiverInbox.owner = s
	return m.register(s)
}

// runsSender / runsReceiver report which machines this process steps:
// both for an in-process session, exactly one for a cluster half.
func (s *Session) runsSender() bool   { return s.cfg.Half != ReceiverEnd }
func (s *Session) runsReceiver() bool { return s.cfg.Half != SenderEnd }

// senderFinished reports whether a sender half has completed: the local
// S transmitted its whole tape and holds every acknowledgement it
// needs. Full sessions always report false — their completion verdict
// belongs to the receiver's tape audit, here or on the remote node.
func (s *Session) senderFinished() bool {
	return s.cfg.Half == SenderEnd && s.cfg.Sender.Done()
}

// Run hands the session to the mux's event loop, waits for completion,
// violation, deadline, or ctx cancellation, and returns its report. It
// must be called at most once.
func (s *Session) Run(ctx context.Context) Report {
	done := make(chan Report, 1)
	s.mux.loop.start(ctx, s, 0, func(_ *Session, rep Report) { done <- rep })
	defer context.AfterFunc(ctx, func() { s.mux.loop.cancel(s) })()
	return <-done
}

// buildReport assembles the session's report from its outcome state. It
// hands the tapes over rather than copying them: the session is finished,
// and nothing writes them again.
func (s *Session) buildReport(elapsed time.Duration) Report {
	rep := Report{
		ID:              s.cfg.ID,
		Input:           s.cfg.Input,
		Output:          s.output,
		Complete:        s.complete,
		SafetyViolation: s.violation,
		Elapsed:         elapsed,
		FramesTx:        s.framesTx,
		AcksTx:          s.acksTx,
		Retransmits:     s.retransmits,
		InboxDrops:      int(s.inboxDrops.Load()),
		LearnTimes:      s.learnTimes,
	}
	if elapsed > 0 {
		rep.GoodputItemsPerSec = float64(len(rep.Output)) / elapsed.Seconds()
	}
	return rep
}

// senderEvent runs one sender step (a delivery or a spontaneous step):
// protocol Step, retransmit bookkeeping, outbound sends, and the send
// side of backoff control. The timer's steps are paced by a capped
// exponential backoff: a retransmission doubles the interval (up to
// BackoffCapFactor ticks, ±25% seeded jitter) and cancels any open
// round-trip probe (Karn's rule), a fresh send resets it to the worker's
// retransmission timeout. The other kind of progress, an acknowledgement
// that moved the sender forward (not a stale one), is service's to
// detect. now is the calling service or fire's clock reading (instant).
// It returns false when the transport closed.
func (s *Session) senderEvent(ev protocol.Event, now *int64) bool {
	s.record(trace.TickS(), channel.RToS, ev)
	retrans, fresh := false, false
	for _, mg := range s.cfg.Sender.Step(ev) {
		if s.haveLast && mg == s.last {
			s.retransmits++
			retrans = true
			s.probeAt = noProbe
			at := s.mux.loop.instant(now)
			if s.lastRetransmitAt != 0 {
				s.mux.met.retransmitIvl.Observe(time.Duration(at - s.lastRetransmitAt).Seconds())
			}
			s.lastRetransmitAt = at
		} else {
			fresh = true
		}
		s.last, s.haveLast = mg, true
		s.framesTx++
		if err := s.worker.send(s.cfg.ID, SenderEnd, mg); err != nil {
			return false // transport closed under us: shut down
		}
	}
	switch {
	case fresh:
		s.bo.reset(s.worker.rtt.rto(s.cfg.Tick))
	case retrans:
		s.bo.grow()
	}
	return true
}

// record appends the model action a step is to the script, when one is
// kept: tick for a spontaneous step, the delivery of ev's message off the
// dir half else. On the live path it is one inlined nil check.
func (s *Session) record(tick trace.Action, dir channel.Dir, ev protocol.Event) {
	if s.script == nil {
		return
	}
	if ev.Kind == protocol.Recv {
		tick = trace.Deliver(dir, ev.Msg)
	}
	*s.script = append(*s.script, tick)
}

// spontaneous steps the sender once, unprompted, and re-arms the
// retransmission backoff from now; false means the transport closed.
func (s *Session) spontaneous(now int64) bool {
	ok := s.senderEvent(protocol.TickEvent(), &now)
	s.bo.arm(now)
	return ok
}

// stepOutcome is receiverEvent's verdict on the session's life.
type stepOutcome int

const (
	// stepRunning: the session continues.
	stepRunning stepOutcome = iota
	// stepDone: the session ended on its merits — completion or a
	// safety violation, already recorded in session state.
	stepDone
	// stepClosed: the transport closed under the session.
	stepClosed
)

// receiverEvent runs one receiver step (a delivery or a tick): protocol
// Step, acknowledgement sends, and the write audit — strict prefix
// safety for plain sessions, the suffix-alignment audit for supervised
// ones. It stops mid-burst on a verdict so no writes land after it. Its
// writes are learnt at now, the calling service or fire's clock reading
// (instant).
func (s *Session) receiverEvent(ev protocol.Event, now *int64) stepOutcome {
	s.record(trace.TickR(), channel.SToR, ev)
	sends, writes := s.cfg.Receiver.Step(ev)
	for _, mg := range sends {
		s.acksTx++
		if err := s.worker.send(s.cfg.ID, ReceiverEnd, mg); err != nil {
			return stepClosed
		}
	}
	for i, item := range writes {
		at := s.mux.loop.instant(now)
		prefix := seq.Tape{Len: int32(len(s.output))} // a plain session stops at its first bad write
		s.output = append(s.output, item)
		s.learnTimes = append(s.learnTimes, time.Duration(at-s.startAt))
		if c := s.sup; c != nil {
			// Supervised session: transient bad writes after a scrambled
			// restart are measured, not fatal, and done means aligned
			// through the end of the tape with no recovery window open.
			c.progressAt = at
			if c.audit.observe(item, at) {
				s.complete = true
				return stepDone
			}
			continue
		}
		if prefix.Write(s.cfg.Input, writes[i:i+1]).Violated {
			s.violation = fmt.Errorf(
				"wire: session %d safety violated: Y = %s is not a prefix of X = %s",
				s.cfg.ID, s.output, s.cfg.Input)
			s.mux.noteViolation(s)
			return stepDone
		}
	}
	if s.sup == nil && len(s.output) == len(s.cfg.Input) {
		s.complete = true
		return stepDone
	}
	return stepRunning
}

// arm starts a life at now — the session's, or under supervision an
// incarnation's: its deadline (SessionConfig.Deadline from now, or the
// ctx deadline if that comes first), its first timer tick, phase-shifted
// by a per-session hash so a fleet started together does not put every
// session's tick on the same instant (the million-session thundering
// herd), and its backoff, with no round-trip probe open.
func (s *Session) arm(now int64) {
	s.deadlineAt = s.ctxDeadline
	if s.cfg.Deadline > 0 {
		s.deadlineAt = min(s.deadlineAt, now+int64(s.cfg.Deadline))
	}
	phase := int64((uint64(s.cfg.Seed) * fibMul) % uint64(s.cfg.Tick))
	s.tickNext = now + int64(s.cfg.Tick)/2 + phase
	s.bo = newBackoff(s.cfg.Tick, s.cfg.Seed, now)
	s.probeAt = noProbe
}

const noProbe = -1 // Session.probeAt with no round-trip probe open

// nextWake is the session's earliest pending timer: its next pacing
// tick, its sender's backoff instant or its deadline, or under
// supervision its next crash or watchdog expiry.
func (s *Session) nextWake() int64 {
	at := min(s.tickNext, s.deadlineAt)
	if s.runsSender() {
		at = min(at, s.bo.next)
	}
	if c := s.sup; c != nil {
		at = min(at, c.wake(s))
	}
	return at
}
