package mc

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"seqtx/internal/obs"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
)

// link records how a BFS first reached a node: from which node (negative
// for a root) and by which move. The links of a search, indexed by node,
// are its shortest-path forest.
type link struct {
	parent int32
	mv     sim.Move
}

// path renders the moves from a root to node i as actions.
func path(sys *sim.System, links []link, i int32) []trace.Action {
	var acts []trace.Action
	for ; links[i].parent >= 0; i = links[i].parent {
		acts = append(acts, sys.Action(links[i].mv))
	}
	slices.Reverse(acts)
	return acts
}

// replay walks a clone of root along acts: how a search that keeps
// states by identity gets a witness's tape, clock and violation text.
func replay(root *sim.World, acts []trace.Action) (*sim.World, error) {
	w := root.Clone()
	for _, act := range acts {
		if err := w.Apply(act); err != nil {
			return nil, fmt.Errorf("mc: replaying %s: %w", act, err)
		}
	}
	return w, nil
}

// engineMetrics accumulates one exploration run's observability in plain
// engine-local scalars and flushes them into the registry when the run
// ends, so metrics cannot affect exploration order or results. A nil
// *engineMetrics (observability off) makes every method a single-branch
// no-op.
type engineMetrics struct {
	reg         *obs.Registry
	scope       string // "explore", "refute", "recovery", "stabilize"
	start       time.Time
	frontier    *obs.Histogram
	levelEvents bool
	states      int64
	dedupHits   int64
	dedupMiss   int64
	levels      int64
}

// newEngineMetrics returns nil when reg is nil — the disabled fast path.
// levelEvents enables the per-level event stream; the recovery engine
// turns it off (one bounded check runs thousands of tiny searches, which
// would flood the bounded event buffer with no narrative value).
func newEngineMetrics(reg *obs.Registry, scope string, levelEvents bool) *engineMetrics {
	if reg == nil {
		return nil
	}
	return &engineMetrics{
		reg:         reg,
		scope:       scope,
		start:       time.Now(),
		frontier:    reg.Histogram("mc_"+scope+"_frontier_size", obs.StepBuckets),
		levelEvents: levelEvents,
	}
}

// noteMerge records one successor's dedup verdict and, for fresh states,
// the growing state count.
func (m *engineMetrics) noteMerge(fresh bool) {
	if m == nil {
		return
	}
	if fresh {
		m.dedupMiss++
		m.states++
	} else {
		m.dedupHits++
	}
}

// noteLevel records a completed BFS level and emits its event.
func (m *engineMetrics) noteLevel(depth, frontierSize int) {
	if m == nil {
		return
	}
	m.levels++
	m.frontier.Observe(float64(frontierSize))
	if m.levelEvents {
		m.reg.Emit("mc.bfs.level",
			"scope", m.scope,
			"depth", strconv.Itoa(depth),
			"frontier", strconv.Itoa(frontierSize),
			"states", strconv.FormatInt(m.states, 10))
	}
}

// flush publishes the accumulated run into the registry.
func (m *engineMetrics) flush() {
	if m == nil {
		return
	}
	r, scope := m.reg, m.scope
	r.Counter("mc_" + scope + "_runs_total").Inc()
	r.Counter("mc_" + scope + "_states_total").Add(m.states)
	r.Counter("mc_" + scope + "_levels_total").Add(m.levels)
	r.Counter("mc_" + scope + "_dedup_hits_total").Add(m.dedupHits)
	r.Counter("mc_" + scope + "_dedup_misses_total").Add(m.dedupMiss)
	if elapsed := time.Since(m.start).Seconds(); elapsed > 0 {
		r.Gauge("mc_" + scope + "_states_per_sec").Set(float64(m.states) / elapsed)
	}
}
