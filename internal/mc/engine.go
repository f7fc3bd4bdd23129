package mc

import (
	"strconv"
	"time"

	"seqtx/internal/obs"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
)

// actions renders moves as actions.
func actions(sys *sim.System, moves []sim.Move) []trace.Action {
	acts := make([]trace.Action, len(moves))
	for i, mv := range moves {
		acts[i] = sys.Action(mv)
	}
	return acts
}

// engineMetrics is where one search publishes its observability. It
// reads the search's graph once, when the search is over (finished or
// failed), so metrics cannot affect exploration order or results. A nil
// *engineMetrics (observability off) makes flush a single-branch no-op.
type engineMetrics struct {
	reg         *obs.Registry
	scope       string // "explore", "refute", "recovery", "stabilize", "progress"
	start       time.Time
	levelEvents bool
}

// newEngineMetrics returns nil when reg is nil — the disabled fast path.
// levelEvents enables the per-level event stream; the recovery engine
// turns it off (one bounded check runs thousands of tiny searches, which
// would flood the bounded event buffer with no narrative value).
func newEngineMetrics(reg *obs.Registry, scope string, levelEvents bool) *engineMetrics {
	if reg == nil {
		return nil
	}
	return &engineMetrics{reg: reg, scope: scope, start: time.Now(), levelEvents: levelEvents}
}

// flush publishes the search g into m's registry: one run, its states
// (every admission a dedup miss), its dedup hits, and per level expanded
// in full the frontier size and, with levelEvents, an event.
func flush[K sim.Key, N, E any](m *engineMetrics, g *sim.Graph[K, N, E]) {
	if m == nil {
		return
	}
	r, scope := m.reg, m.scope
	frontier := r.Histogram("mc_"+scope+"_frontier_size", obs.StepBuckets)
	levels := max(len(g.Bounds)-2, 0)
	for d := 0; d < levels; d++ {
		size := g.Bounds[d+1] - g.Bounds[d]
		frontier.Observe(float64(size))
		if m.levelEvents {
			r.Emit("mc.bfs.level",
				"scope", scope,
				"depth", strconv.Itoa(d),
				"frontier", strconv.Itoa(int(size)),
				"states", strconv.Itoa(int(g.Bounds[d+2])))
		}
	}
	states := int64(len(g.Nodes))
	r.Counter("mc_" + scope + "_runs_total").Inc()
	r.Counter("mc_" + scope + "_states_total").Add(states)
	r.Counter("mc_" + scope + "_levels_total").Add(int64(levels))
	r.Counter("mc_" + scope + "_dedup_hits_total").Add(int64(g.Hits))
	r.Counter("mc_" + scope + "_dedup_misses_total").Add(states)
	if elapsed := time.Since(m.start).Seconds(); elapsed > 0 {
		r.Gauge("mc_" + scope + "_states_per_sec").Set(float64(states) / elapsed)
	}
}
