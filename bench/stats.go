package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// median returns the median of vals (mean of the middle pair for an even
// count); 0 for an empty slice. vals is sorted in place.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of a sample
// made of the sorted values plus `misses` requests that never completed.
// A miss is slower than any value, so misses occupy the top ranks; when the
// requested rank falls on a miss, ok is false and the caller reports the
// time-out the miss ran into instead of a completion time.
func percentile(sorted []float64, misses int, q float64) (v float64, ok bool) {
	n := len(sorted) + misses
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		return 0, false
	}
	return sorted[rank], true
}

// processCPU reads CLOCK_PROCESS_CPUTIME_ID: user+sys CPU time consumed by
// every thread of this process, at scheduler (nanosecond) resolution —
// getrusage is only tick-accurate on kernels without precise accounting.
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// rusageSplit returns the process's user and system CPU time.
func rusageSplit() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// runtimeCounters reads the Go runtime's cumulative counters without
// stopping the world (runtime/metrics, not ReadMemStats), so it can bracket
// every op.
type runtimeCounters struct {
	samples []metrics.Sample
}

func newRuntimeCounters() *runtimeCounters {
	return &runtimeCounters{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}}
}

type runtimeReading struct {
	mallocs   uint64  // heap objects allocated, tiny allocations included (= MemStats.Mallocs)
	gcCPU     float64 // seconds of CPU the collector has used
	heapBytes uint64  // bytes in live and not-yet-swept heap objects
}

func (c *runtimeCounters) read() runtimeReading {
	metrics.Read(c.samples)
	return runtimeReading{
		mallocs:   c.samples[0].Value.Uint64() + c.samples[1].Value.Uint64(),
		gcCPU:     c.samples[2].Value.Float64(),
		heapBytes: c.samples[3].Value.Uint64(),
	}
}

// opClock brackets an op's timed region: wall time, process CPU with its
// user/sys split, and heap allocations.
type opClock struct {
	counters    *runtimeCounters
	rt0         runtimeReading
	cpu0        time.Duration
	user0, sys0 time.Duration
	t0          time.Time
}

func newOpClock() *opClock { return &opClock{counters: newRuntimeCounters()} }

func (c *opClock) start() {
	c.user0, c.sys0 = rusageSplit()
	c.rt0, c.cpu0, c.t0 = c.counters.read(), processCPU(), time.Now()
}

// stop returns an opResult carrying the region's costs; t1 is when it ended.
func (c *opClock) stop() (res opResult, t1 time.Time) {
	t1, cpu1, rt1 := time.Now(), processCPU(), c.counters.read()
	user1, sys1 := rusageSplit()
	return opResult{
		wall: t1.Sub(c.t0), cpu: cpu1 - c.cpu0,
		user: user1 - c.user0, sys: sys1 - c.sys0,
		mallocs: rt1.mallocs - c.rt0.mallocs,
	}, t1
}

// opResult is one op (a wave or an exploration) as the harness saw it.
type opResult struct {
	wall    time.Duration
	cpu     time.Duration
	build   time.Duration // fleets: the registry.Pair loop, part of wall
	user    time.Duration // rusage split of cpu (tick-accurate only)
	sys     time.Duration
	mallocs uint64
	units   int // items written to Y, or distinct states visited

	inboxDrops int // fleets: sum of Report.InboxDrops

	// done holds the completion time of every request of the op that
	// completed, in ms; missed counts the ones that did not.
	done   []float64
	missed int

	// failed: the op is excluded from medians and cost totals and counted
	// once. stalled: this attempt ran into its time-out (as opposed to a
	// correctness breach, which also sets breach).
	failed  bool
	stalled bool
	breach  error

	// Set by runOp: how many attempts at this op stalled and were retried
	// before this one, and how long they took. Everything above describes
	// this, the last, attempt only.
	retried   int
	retryWait time.Duration
}

// summary is the end-to-end view of a series of ops.
type summary struct {
	attempted, failed, stalled  int
	requests, requestsMissed    int
	cleanUnits, cleanInboxDrops int
	cleanWall, cleanCPU         time.Duration
	cleanBuild                  time.Duration
	cleanUser, cleanSys         time.Duration
	cleanMallocs                uint64
	stallWait                   time.Duration
	cleanDoneMs                 float64 // sum of the clean ops' completion times
	goodput, doneP50, doneP90   float64
	cpuUsPerUnit, allocsPerUnit float64
}

// summarize folds ops into the end-to-end metrics: timings are medians (or
// percentiles) over ops and requests, costs are totals over clean ops. A
// stalled attempt that runOp retried contributes one stall count and its wait
// (which the op's requests and goodput sit through), no cost; a failed op contributes one failure count and its requests'
// outcomes to the latency distribution — never a skewed total. timeoutMs is
// reported for a percentile whose rank falls on a request that never completed.
func summarize(ops []opResult, timeoutMs float64) summary {
	var s summary
	var rates, done []float64
	for _, op := range ops {
		s.attempted++
		s.requests += len(op.done) + op.missed
		s.requestsMissed += op.missed
		// The op's requests sat through its retried attempts.
		waitMs := float64(op.retryWait.Nanoseconds()) / 1e6
		for _, ms := range op.done {
			done = append(done, waitMs+ms)
		}
		s.stalled += op.retried
		s.stallWait += op.retryWait
		if op.failed {
			s.failed++
			if op.stalled {
				s.stalled++
				s.stallWait += op.wall
			}
			continue
		}
		s.cleanUnits += op.units
		s.cleanInboxDrops += op.inboxDrops
		s.cleanWall += op.wall
		s.cleanCPU += op.cpu
		s.cleanBuild += op.build
		s.cleanUser += op.user
		s.cleanSys += op.sys
		s.cleanMallocs += op.mallocs
		for _, ms := range op.done {
			s.cleanDoneMs += ms
		}
		rates = append(rates, float64(op.units)/(op.retryWait+op.wall).Seconds())
	}
	s.goodput = median(rates)
	sort.Float64s(done)
	var ok bool
	if s.doneP50, ok = percentile(done, s.requestsMissed, 0.50); !ok {
		s.doneP50 = timeoutMs
	}
	if s.doneP90, ok = percentile(done, s.requestsMissed, 0.90); !ok {
		s.doneP90 = timeoutMs
	}
	if s.cleanUnits > 0 {
		s.cpuUsPerUnit = float64(s.cleanCPU.Nanoseconds()) / 1e3 / float64(s.cleanUnits)
		s.allocsPerUnit = float64(s.cleanMallocs) / float64(s.cleanUnits)
	}
	return s
}
