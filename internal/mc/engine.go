package mc

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"seqtx/internal/obs"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
)

// EngineConfig selects how the exploration engines (Explore, Refute, and
// the recovery search behind CheckBounded) expand each BFS level.
//
// The engines are level-synchronized: every node of the current depth is
// expanded before any node of the next, the frontier is split into one
// contiguous share per worker, and the per-worker results are merged by
// a single goroutine in frontier×action order — the exact order the
// sequential engine processes children in. Results (state
// counts, depth, truncation, the first violation) are therefore identical
// for every worker count; parallelism changes wall-clock time only.
type EngineConfig struct {
	// Workers is the most goroutines that expand a BFS level (a small
	// level gets fewer). 0 means GOMAXPROCS; 1 selects the in-line
	// sequential path (no goroutines, no staging).
	Workers int
	// Obs, when non-nil, receives engine metrics (states visited, dedup
	// hit rate, frontier sizes, per-worker expansion counts, states/sec)
	// and per-level BFS events. Metrics are accumulated in engine-local
	// scalars and flushed once per run, so they cannot affect exploration
	// order or results; nil disables them for the cost of a few branches.
	Obs *obs.Registry
}

func (e EngineConfig) workerCount() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// workerScratch is one worker's private state: its Reader onto the
// tabulated system and reused move buffers.
type workerScratch struct {
	r      *sim.Reader
	moves  []sim.Move
	pmoves []productMove
}

func newScratch(sys *sim.System, workers int) []workerScratch {
	scratch := make([]workerScratch, workers)
	for i := range scratch {
		scratch[i].r = sys.Reader()
	}
	return scratch
}

// link records how a BFS first reached a node: from which node (negative
// for a root) and by which move. The links of a search, indexed by node,
// are its shortest-path forest.
type link struct {
	parent int32
	mv     sim.Move
}

// path renders the moves from a root to node i as actions.
func path(r *sim.Reader, links []link, i int32) []trace.Action {
	var acts []trace.Action
	for ; links[i].parent >= 0; i = links[i].parent {
		acts = append(acts, r.Action(links[i].mv))
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

// minNodesPerWorker is the level size below which another worker costs
// more (a goroutine, staged candidates, a second pass over them) than it
// saves: a tabulated expansion is a few lookups per successor.
const minNodesPerWorker = 32

// engineMetrics accumulates one exploration run's observability in plain
// engine-local scalars and flushes them into the registry when the run
// ends. The merge goroutine owns the dedup/state counters; expansion
// counts are per-worker slots owned exclusively by their worker (the same
// ownership discipline as workerScratch), read only after the phase
// barrier. A nil *engineMetrics (observability off) makes every method a
// single-branch no-op.
type engineMetrics struct {
	reg         *obs.Registry
	scope       string // "explore", "refute", "recovery"
	start       time.Time
	frontier    *obs.Histogram
	levelEvents bool
	states      int64
	dedupHits   int64
	dedupMiss   int64
	levels      int64
	expansions  []int64 // nodes expanded, per worker
	dups        []int64 // successors a worker itself saw were visited, per worker
}

// newEngineMetrics returns nil when reg is nil — the disabled fast path.
// levelEvents enables the per-level event stream; the recovery engine
// turns it off (one bounded check runs thousands of tiny searches, which
// would flood the bounded event buffer with no narrative value).
func newEngineMetrics(reg *obs.Registry, scope string, workers int, levelEvents bool) *engineMetrics {
	if reg == nil {
		return nil
	}
	return &engineMetrics{
		reg:         reg,
		scope:       scope,
		start:       time.Now(),
		frontier:    reg.Histogram("mc_"+scope+"_frontier_size", obs.StepBuckets),
		levelEvents: levelEvents,
		expansions:  make([]int64, workers),
		dups:        make([]int64, workers),
	}
}

// noteExpand records that worker expanded one frontier node.
func (m *engineMetrics) noteExpand(worker int) {
	if m == nil {
		return
	}
	m.expansions[worker]++
}

// noteDup records a successor that worker found in the visited set and
// so never handed to the merge: a dedup hit all the same.
func (m *engineMetrics) noteDup(worker int) {
	if m == nil {
		return
	}
	m.dups[worker]++
}

// noteMerge records one candidate's dedup verdict and, for fresh states,
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
	hits := m.dedupHits
	for _, n := range m.dups {
		hits += n
	}
	r.Counter("mc_" + scope + "_dedup_hits_total").Add(hits)
	r.Counter("mc_" + scope + "_dedup_misses_total").Add(m.dedupMiss)
	if elapsed := time.Since(m.start).Seconds(); elapsed > 0 {
		r.Gauge("mc_" + scope + "_states_per_sec").Set(float64(m.states) / elapsed)
	}
	for w, n := range m.expansions {
		r.Counter(fmt.Sprintf(`mc_worker_expansions_total{scope=%q,worker="%d"}`, scope, w)).Add(n)
	}
}

// runLevel expands the n nodes of one BFS level and hands every
// candidate to merge in node × emission order, the order a sequential
// search produces them in. expand(worker, i, emit) emits node i's
// candidates, stopping early when emit returns false or with an error
// when a move fails; merge returns false to end the level (a search
// that has its answer). runLevel returns the error of the first failing
// node, after merging exactly the candidates that precede it. With one
// worker candidates are merged as they are produced; with more, worker w
// takes the w-th contiguous share of the level, stages its candidates in
// (*bufs)[w] (reused across levels), and the merge runs after all have
// finished — the barrier that lets workers read the visited set without
// locks while they expand.
func runLevel[C any](workers, n int, bufs *[][]C, expand func(worker, i int, emit func(C) bool) error, merge func(C) bool) error {
	workers = min(workers, n/minNodesPerWorker)
	if workers <= 1 {
		more := true
		emit := func(c C) bool {
			more = merge(c)
			return more
		}
		for i := 0; i < n && more; i++ {
			if err := expand(0, i, emit); err != nil {
				return err
			}
		}
		return nil
	}
	for len(*bufs) < workers {
		*bufs = append(*bufs, nil)
	}
	staged, errs := (*bufs)[:workers], make([]error, workers)
	var wg sync.WaitGroup
	for w := range staged {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := staged[w][:0]
			emit := func(c C) bool {
				out = append(out, c)
				return true
			}
			for i := w * n / workers; i < (w+1)*n/workers && errs[w] == nil; i++ {
				errs[w] = expand(w, i, emit)
			}
			staged[w] = out
		}()
	}
	wg.Wait()
	for w, cands := range staged {
		for _, c := range cands {
			if !merge(c) {
				return nil
			}
		}
		if errs[w] != nil {
			return errs[w]
		}
	}
	return nil
}
