package wire

import (
	"context"
	"fmt"
	"sync"

	"seqtx/internal/obs"
)

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
}

// Serve multiplexes every configured session over the transport, runs
// them all concurrently, and returns their reports (index-aligned with
// cfg.Sessions). The whole fleet runs on the mux's fixed worker pool —
// Serve adds no goroutines per session, which is what makes
// million-session fleets a flat-memory affair. It shuts
// down gracefully: ctx cancellation (or a per-session deadline) ends
// the affected sessions, which report Complete=false; the transport and
// mux are always closed before Serve returns. The error covers setup
// failures only — per-session outcomes, including safety violations,
// live in the reports.
func Serve(ctx context.Context, cfg ServeConfig) ([]Report, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("wire: serve needs a transport")
	}
	if len(cfg.Sessions) == 0 {
		return nil, fmt.Errorf("wire: serve needs at least one session")
	}
	mux := NewMuxConfig(cfg.Transport, MuxConfig{
		Obs:              cfg.Obs,
		EventSampleEvery: cfg.EventSampleEvery,
	})
	sessions := make([]*Session, len(cfg.Sessions))
	for i, sc := range cfg.Sessions {
		s, err := mux.NewSession(sc)
		if err != nil {
			mux.Close()
			return nil, err
		}
		sessions[i] = s
	}
	reports := make([]Report, len(sessions))
	var wg sync.WaitGroup
	wg.Add(len(sessions))
	// Hand every session to the worker pool with a completion callback;
	// one watcher goroutine total relays ctx cancellation to the engine.
	for i, s := range sessions {
		mux.loop.start(ctx, s, func(rep Report) {
			reports[i] = rep
			wg.Done()
		})
	}
	stopWatch := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			for _, s := range sessions {
				mux.loop.cancel(s)
			}
		case <-stopWatch:
		}
	}()
	wg.Wait()
	close(stopWatch)
	if err := mux.Close(); err != nil {
		return reports, fmt.Errorf("wire: closing transport: %w", err)
	}
	return reports, nil
}
