package wire

import (
	"context"
	"fmt"
	"math/rand"

	"seqtx/internal/channel"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
)

// DetConfig configures a deterministic wire run: a real Session on a real
// Mux, stepped by the production loopWorker, with a seeded scheduler in
// place of goroutines and the wall clock — exactly reproducible and,
// because every recorded action is enabled on a dup link, a run of the
// model that DetResult.Accept checks in the lock-step simulator
// (DESIGN.md §8).
type DetConfig struct {
	// Sender and Receiver are fresh protocol processes.
	Sender   protocol.Sender
	Receiver protocol.Receiver
	// Input is the tape X given to the sender.
	Input seq.Seq
	// Seed drives the scheduler and the session's jitter streams.
	Seed int64
	// MaxSteps bounds the run (default 64 + 512 per input item).
	MaxSteps int
	// Impair is the link impairment, as on a live transport.
	Impair Options
	// SessionID is the wire session id stamped into frames (default 1).
	SessionID uint64
}

// DetResult is the outcome of a deterministic wire run.
type DetResult struct {
	// Report is the session's own report; its durations are readings of
	// the run's virtual timeline.
	Report
	// Script is the schedule, recorded by the session as it stepped:
	// sim.Accept plays it on a dup link and reproduces Output (every
	// recorded action is enabled there — ticks always are, and a dup half
	// keeps every ever-sent message deliverable); Accept is that check.
	Script []trace.Action
	// Steps is the number of scheduler choices taken.
	Steps int
}

// detLink is the transport under a deterministic run: it delivers nothing
// by itself and keeps every distinct frame an end ever put on it, in
// arrival order — the dup channel's dlvrble, never consumed — for the
// scheduler to deliver as often as it likes. A second copy adds nothing,
// so a duplicating impairment is absorbed here (the scheduler is the dup
// adversary already); the others decide what enters, and when.
type detLink struct {
	sent [2][][]byte // indexed End-1
	seen map[string]struct{}
}

func (l *detLink) Name() string { return "det" }

// Send implements Transport. The frame aliases the sending worker's chunk,
// which the next burst overwrites: the link keeps a copy.
func (l *detLink) Send(from End, frame []byte) error {
	if _, held := l.seen[string(frame)]; !held {
		l.seen[string(frame)] = struct{}{}
		l.sent[from-1] = append(l.sent[from-1], append([]byte(nil), frame...))
	}
	return nil
}

func (l *detLink) Recv(End) <-chan []byte { return nil }
func (l *detLink) Close() error           { return nil }

// DetRun executes one deterministic wire run. Each seeded choice is time —
// the clock jumps to the worker's next timer, whose fire is the tick, the
// backoff and the retransmission of a live run — or a delivery: one frame
// the link holds goes through Mux.arrive into the session's inbox, which
// readies the session. Either way the worker then takes one turn.
func DetRun(cfg DetConfig) (DetResult, error) {
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 64 + 512*len(cfg.Input)
	}
	if cfg.SessionID == 0 {
		cfg.SessionID = 1
	}
	link := &detLink{seen: make(map[string]struct{})}
	tr, err := NewImpairment(link, cfg.Impair, nil)
	if err != nil {
		return DetResult{}, err
	}
	m := newMux(tr, MuxConfig{}, true)
	s, err := m.NewSession(SessionConfig{
		ID: cfg.SessionID, Sender: cfg.Sender, Receiver: cfg.Receiver, Input: cfg.Input, Seed: cfg.Seed,
	})
	if err != nil {
		m.Close()
		return DetResult{}, err
	}
	var res DetResult
	s.script = &res.Script
	done := false
	m.loop.start(context.Background(), s, 0, func(_ *Session, rep Report) { res.Report, done = rep, true })
	w, rng := s.worker, rand.New(rand.NewSource(cfg.Seed))
	for w.turn(); !done && res.Steps < cfg.MaxSteps; res.Steps++ {
		// One choice in four is time, so the timer path runs on every seed
		// and a lossy link is retransmitted over however long the tape; the
		// rest are deliveries, so a clean run converges.
		toR, toS := link.sent[SenderEnd-1], link.sent[ReceiverEnd-1]
		if n := len(toR) + len(toS); n == 0 || rng.Intn(4) == 0 {
			m.loop.clock = w.timers[0].at
		} else if k := rng.Intn(n); k < len(toR) {
			m.arrive(ReceiverEnd, toR[k])
		} else {
			m.arrive(SenderEnd, toS[k-len(toR)])
		}
		w.turn()
	}
	m.Close() // a session still running reports here, incomplete
	return res, nil
}

// Accept is the det cross-check: the recorded schedule, played by
// sim.Accept on a dup link from a fresh world of spec, must be a run of the
// model that reaches the wire's verdict and tape. A session's audit stops
// a burst at the first bad write where World.Apply finishes the step, so
// on a violating run the tapes are compared through the wire's last write.
// A run that recorded no step proves nothing and is rejected.
func (r DetResult) Accept(spec protocol.Spec) error {
	if len(r.Script) == 0 {
		return fmt.Errorf("the run recorded no step")
	}
	link, err := channel.NewLinkOfKind(channel.KindDup)
	if err != nil {
		return err
	}
	w, err := sim.New(spec, r.Input, link)
	if err != nil {
		return err
	}
	got, err := sim.Accept(w, r.Script, sim.Config{})
	if err != nil {
		return err
	}
	if (got.SafetyViolation == nil) != (r.SafetyViolation == nil) {
		return fmt.Errorf("safety verdicts disagree: wire %v, sim %v", r.SafetyViolation, got.SafetyViolation)
	}
	tape := got.Output
	if r.SafetyViolation != nil && len(tape) > len(r.Output) {
		tape = tape[:len(r.Output)]
	}
	if !tape.Equal(r.Output) || got.OutputComplete != r.Complete {
		return fmt.Errorf("wire output %s (complete=%v) != sim output %s (complete=%v)",
			r.Output, r.Complete, got.Output, got.OutputComplete)
	}
	return nil
}
