package wire

import (
	"context"
	"fmt"
	"sync"
	"time"

	"seqtx/internal/obs"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
)

// sessionChunk bounds the sessions Serve allocates at once: a Session is
// 840 B, so a chunk is ≈ 215 KB, and a million-session wave makes ≈ 3 900
// chunk allocations, not one 840 MB object.
const sessionChunk = 256

// ServeConfig describes a fleet of sessions over one transport.
type ServeConfig struct {
	// Transport carries all sessions' frames; Serve closes it when the
	// last session ends.
	Transport Transport
	// Sessions are the transfers to run concurrently.
	Sessions []SessionConfig
	// Obs receives the wire metrics and events (nil = no-op sink).
	Obs *obs.Registry
	// EventSampleEvery samples per-session lifecycle events (see
	// MuxConfig.EventSampleEvery); 0 emits for every session.
	EventSampleEvery uint64
	// StartEvery paces the fleet: session i starts i×StartEvery after
	// Serve is called (0 = all at once).
	StartEvery time.Duration
	// Chaos, when non-nil, supervises every session on this crash-restart
	// schedule (supervisor.go): the stabilization audit replaces the strict
	// prefix audit, each Report carries a ChaosReport, and a zero Seed
	// defaults to faults.SubSeed(Chaos.Seed, ID).
	Chaos *ChaosConfig
	// Rebuild returns a fresh initial-state process pair for session
	// index i (index into Sessions); required with Chaos.
	Rebuild func(i int) (protocol.Sender, protocol.Receiver, error)
}

// Serve multiplexes every configured session over the transport, runs
// them all concurrently, and returns their reports (index-aligned with
// cfg.Sessions). The whole fleet runs on the mux's fixed worker pool —
// Serve adds no goroutines per session, paced or supervised, which is
// what makes million-session fleets a flat-memory affair. It shuts
// down gracefully: ctx cancellation (or a per-session deadline) ends
// the affected sessions, started or not, which report Complete=false;
// the transport and mux are always closed before Serve returns. The
// error covers setup failures and a failing Rebuild — per-session
// outcomes, including safety violations, live in the reports.
func Serve(ctx context.Context, cfg ServeConfig) ([]Report, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("wire: serve needs a transport")
	}
	if len(cfg.Sessions) == 0 {
		return nil, fmt.Errorf("wire: serve needs at least one session")
	}
	if cfg.Chaos != nil && cfg.Rebuild == nil {
		return nil, fmt.Errorf("wire: supervised serve needs a rebuild constructor")
	}
	mux := NewMuxConfig(cfg.Transport, MuxConfig{
		Obs:              cfg.Obs,
		EventSampleEvery: cfg.EventSampleEvery,
	})
	var plan *chaosPlan
	if cfg.Chaos != nil {
		plan = &chaosPlan{*cfg.Chaos, cfg.Chaos.schedule(), cfg.Rebuild}
	}
	// A wave pays for its sessions per wave: the sessions come from
	// chunks of at most sessionChunk, and their tapes are windows of one
	// slab apiece, each capped at its session's length (an append past it
	// reallocates; it never reaches a neighbour).
	items := 0
	for _, sc := range cfg.Sessions {
		items += len(sc.Input)
	}
	outputs := make(seq.Seq, items)
	learnTimes := make([]time.Duration, items)
	sessions := make([]*Session, len(cfg.Sessions))
	var chunk []Session
	o := 0
	for i, sc := range cfg.Sessions {
		if len(chunk) == 0 {
			chunk = make([]Session, min(len(cfg.Sessions)-i, sessionChunk))
		}
		s := &chunk[0]
		chunk = chunk[1:]
		s.index = i
		n := o + len(sc.Input)
		if err := mux.initSession(s, sc, outputs[o:o:n], learnTimes[o:o:n]); err != nil {
			mux.Close()
			return nil, err
		}
		o = n
		if plan != nil {
			plan.supervise(s)
			if sc.Seed == 0 {
				s.cfg.Seed = s.sup.seed
			}
		}
		sessions[i] = s
	}
	reports := make([]Report, len(sessions))
	var wg sync.WaitGroup
	wg.Add(len(sessions))
	// Hand every session to the worker pool with the wave's one completion
	// callback; ctx cancellation is relayed to the engine, not watched per
	// session.
	done := func(s *Session, rep Report) {
		reports[s.index] = rep
		wg.Done()
	}
	for i, s := range sessions {
		mux.loop.start(ctx, s, time.Duration(i)*cfg.StartEvery, done)
	}
	stop := context.AfterFunc(ctx, func() {
		for _, s := range sessions {
			mux.loop.cancel(s)
		}
	})
	wg.Wait()
	stop()
	err := mux.Close()
	for i := range reports {
		if c := reports[i].Chaos; c != nil && c.Err != nil {
			return reports, c.Err
		}
	}
	if err != nil {
		return reports, fmt.Errorf("wire: closing transport: %w", err)
	}
	return reports, nil
}
