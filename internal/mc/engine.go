package mc

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"seqtx/internal/obs"
	"seqtx/internal/trace"
)

// EngineConfig selects how the exploration engines (Explore, Refute, and
// the recovery search behind CheckBounded) expand each BFS level.
//
// The engines are level-synchronized: every node of the current depth is
// expanded before any node of the next, the frontier is split into
// contiguous chunks handed to a worker pool, and the per-chunk results
// are merged by a single goroutine in frontier×action order — the exact
// order the sequential engine processes children in. Results (state
// counts, depth, truncation, the first violation) are therefore identical
// for every worker count; parallelism changes wall-clock time only.
type EngineConfig struct {
	// Workers is the number of goroutines expanding each BFS level.
	// 0 means GOMAXPROCS; 1 selects the in-line sequential path (no
	// goroutines, no chunk staging).
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

// hashBytes is FNV-1a 64 over the canonical binary state key.
func hashBytes(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// indexShards is the shard count of stateIndex (a power of two).
const indexShards = 64

// stateIndex deduplicates explored states by their canonical binary keys.
// States are bucketed by key hash and verified by byte equality, so hash
// collisions cannot merge distinct states.
//
// Concurrency contract (the level-synchronized engines guarantee it):
// contains may be called from many goroutines at once, but only while no
// insert is running; insert is called by the single merge goroutine
// between expansion phases. A WaitGroup barrier separates the phases, so
// no locks are needed.
type stateIndex struct {
	shards [indexShards]map[uint64][][]byte
}

func newStateIndex() *stateIndex {
	ix := &stateIndex{}
	for i := range ix.shards {
		ix.shards[i] = make(map[uint64][][]byte)
	}
	return ix
}

func (ix *stateIndex) contains(h uint64, key []byte) bool {
	for _, rec := range ix.shards[h%indexShards][h] {
		if bytes.Equal(rec, key) {
			return true
		}
	}
	return false
}

// insert records key under h. The caller must have checked contains and
// must pass a stable slice (never mutated afterwards).
func (ix *stateIndex) insert(h uint64, key []byte) {
	shard := ix.shards[h%indexShards]
	shard[h] = append(shard[h], key)
}

// stableCopy returns an exact-size private copy of key for the index.
func stableCopy(key []byte) []byte {
	return append(make([]byte, 0, len(key)), key...)
}

// arenaBlock is the keyArena block size.
const arenaBlock = 64 << 10

// keyArena hands out stable byte slices for candidate keys that must
// survive until the level merge, without one allocation per candidate.
// reset recycles the current block; the engines call it once per level,
// after the merge has copied every admitted key out of the arena.
type keyArena struct {
	block []byte
}

func (a *keyArena) reset() {
	a.block = a.block[:0]
}

func (a *keyArena) hold(b []byte) []byte {
	if len(b) > arenaBlock {
		return stableCopy(b)
	}
	if len(a.block)+len(b) > cap(a.block) {
		// The outgrown block stays alive while this level's candidates
		// reference it; it is garbage after the merge.
		a.block = make([]byte, 0, arenaBlock)
	}
	start := len(a.block)
	a.block = append(a.block, b...)
	return a.block[start : start+len(b) : start+len(b)]
}

// workerScratch is the per-worker reusable state: a key encoding buffer,
// an enabled-action buffer, and the candidate-key arena. Reusing them
// across transitions is where the engine sheds most of its allocations.
type workerScratch struct {
	keyBuf []byte
	acts   []trace.Action
	pacts  []ProductAction
	arena  keyArena
}

func newScratch(workers int) []workerScratch {
	return make([]workerScratch, workers)
}

// chunkBounds splits n items into at most k contiguous [lo, hi) ranges of
// near-equal size, in order.
func chunkBounds(n, k int) [][2]int {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	bounds := make([][2]int, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		if lo < hi {
			bounds = append(bounds, [2]int{lo, hi})
		}
	}
	return bounds
}

// candBufs returns n empty per-chunk candidate buffers for one BFS level,
// reusing the outer slice and the capacity earlier levels left in *bufs.
// The previous level's candidates are cleared first so the successors the
// merge rejected (most of them) are garbage as soon as the level ends.
func candBufs[C any](bufs *[][]C, n int) [][]C {
	for i, b := range *bufs {
		clear(b)
		(*bufs)[i] = b[:0]
	}
	for len(*bufs) < n {
		*bufs = append(*bufs, nil)
	}
	return (*bufs)[:n]
}

// chunksPerWorker oversplits levels for load balancing: chunks are claimed
// dynamically, so a worker stuck on a heavy chunk sheds the rest.
const chunksPerWorker = 4

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
	}
}

// noteExpand records that worker expanded one frontier node.
func (m *engineMetrics) noteExpand(worker int) {
	if m == nil {
		return
	}
	m.expansions[worker]++
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
	r.Counter("mc_" + scope + "_dedup_hits_total").Add(m.dedupHits)
	r.Counter("mc_" + scope + "_dedup_misses_total").Add(m.dedupMiss)
	if elapsed := time.Since(m.start).Seconds(); elapsed > 0 {
		r.Gauge("mc_" + scope + "_states_per_sec").Set(float64(m.states) / elapsed)
	}
	for w, n := range m.expansions {
		r.Counter(fmt.Sprintf(`mc_worker_expansions_total{scope=%q,worker="%d"}`, scope, w)).Add(n)
	}
}

// runChunks expands the chunks of one BFS level across the worker pool.
// Worker w owns scratch index w exclusively; chunks are claimed through an
// atomic cursor, and run must only write state owned by its chunk. The
// call returns when every chunk is done (the phase barrier that makes the
// index's lock-free contains sound).
func runChunks(workers int, bounds [][2]int, run func(worker, chunk int)) {
	if workers > len(bounds) {
		workers = len(bounds)
	}
	if workers <= 1 {
		for c := range bounds {
			run(0, c)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				c := int(cursor.Add(1)) - 1
				if c >= len(bounds) {
					return
				}
				run(w, c)
			}
		}(w)
	}
	wg.Wait()
}
