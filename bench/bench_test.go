package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/obs"
)

func TestPercentileCountsMissesAsSlowest(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if v, ok := percentile(vals, 0, 0.5); !ok || v != 4 {
		t.Errorf("p50 of 1..8 = %v, %v; want 4, true", v, ok)
	}
	if v, ok := percentile(vals, 0, 0.9); !ok || v != 8 {
		t.Errorf("p90 of 1..8 = %v, %v; want 8, true", v, ok)
	}
	// Two misses push the sample to ten: rank 9 of 10 is a miss.
	if v, ok := percentile(vals, 2, 0.5); !ok || v != 5 {
		t.Errorf("p50 with 2 misses = %v, %v; want 5, true", v, ok)
	}
	if _, ok := percentile(vals, 2, 0.9); ok {
		t.Error("p90 with 2 misses of 10 landed on a value; want a miss")
	}
	if _, ok := percentile(nil, 0, 0.5); ok {
		t.Error("percentile of nothing reported a value")
	}
}

func TestSummarizeExcludesFailedOps(t *testing.T) {
	ms := time.Millisecond
	ops := []opResult{
		{wall: 10 * ms, cpu: 4 * ms, mallocs: 100, units: 10, done: []float64{1, 2}},
		{wall: 20 * ms, cpu: 2 * ms, mallocs: 200, units: 10, done: []float64{3, 4}},
		// An op whose every attempt stalled: huge wall and cpu, half its
		// requests missing.
		{wall: 250 * ms, cpu: 200 * ms, mallocs: 5000, units: 5, done: []float64{5}, missed: 1, failed: true, stalled: true},
	}
	s := summarize(ops, 250)
	if s.attempted != 3 || s.failed != 1 || s.stalled != 1 {
		t.Errorf("attempted/failed/stalled = %d/%d/%d, want 3/1/1", s.attempted, s.failed, s.stalled)
	}
	if s.requests != 6 || s.requestsMissed != 1 {
		t.Errorf("requests/missed = %d/%d, want 6/1", s.requests, s.requestsMissed)
	}
	if want := 300.0; s.cpuUsPerUnit != want { // 6 ms over 20 units
		t.Errorf("cpu_us_per_unit = %v, want %v (failed op excluded)", s.cpuUsPerUnit, want)
	}
	if want := 15.0; s.allocsPerUnit != want {
		t.Errorf("allocs_per_unit = %v, want %v (failed op excluded)", s.allocsPerUnit, want)
	}
	if want := 750.0; s.goodput != want { // median of 1000/s and 500/s
		t.Errorf("goodput = %v, want %v", s.goodput, want)
	}
	// Latency keeps the failed op's requests: 1..5 and one miss.
	if s.doneP50 != 3 || s.doneP90 != 250 {
		t.Errorf("done p50/p90 = %v/%v, want 3/250 (the miss saturates at the time-out)", s.doneP50, s.doneP90)
	}
	if s.stallWait != 250*ms {
		t.Errorf("stall wait = %v, want 250ms", s.stallWait)
	}
}

func TestSummarizeChargesRetriedAttemptsToLatencyNotCost(t *testing.T) {
	ms := time.Millisecond
	ops := []opResult{
		{wall: 10 * ms, cpu: 4 * ms, mallocs: 100, units: 10, done: []float64{1, 2}},
		// Clean on the second attempt, after one that stalled for 250 ms.
		{wall: 10 * ms, cpu: 2 * ms, mallocs: 100, units: 10, done: []float64{3, 4}, retried: 1, retryWait: 250 * ms},
		{wall: 10 * ms, cpu: 3 * ms, mallocs: 100, units: 10, done: []float64{5, 6}},
	}
	s := summarize(ops, 500)
	if s.attempted != 3 || s.failed != 0 || s.stalled != 1 || s.stallWait != 250*ms {
		t.Errorf("attempted/failed/stalled/wait = %d/%d/%d/%v, want 3/0/1/250ms", s.attempted, s.failed, s.stalled, s.stallWait)
	}
	if s.cpuUsPerUnit != 300 || s.allocsPerUnit != 10 || s.cleanWall != 30*ms {
		t.Errorf("cpu/allocs per unit %v/%v over %v, want 300/10 over 30ms (the stalled attempt costs nothing)", s.cpuUsPerUnit, s.allocsPerUnit, s.cleanWall)
	}
	// Requests 3 and 4 completed 253 and 254 ms after they were first sent.
	if s.doneP50 != 5 || s.doneP90 != 254 {
		t.Errorf("done p50/p90 = %v/%v, want 5/254", s.doneP50, s.doneP90)
	}
	if want := 1000.0; s.goodput != want { // rates 1000, 10/0.26, 1000
		t.Errorf("goodput = %v, want %v", s.goodput, want)
	}
}

// stallingRunner stalls the first stalls[i] attempts at op i.
type stallingRunner struct {
	stalls   map[int]int
	attempts map[int]int
}

func (r *stallingRunner) op(i int, reg *obs.Registry, _ *spanLog) (opResult, error) {
	r.attempts[i]++
	reg.Counter("attempts").Inc()
	if r.attempts[i] <= r.stalls[i] {
		return opResult{wall: 250 * time.Millisecond, missed: 1, failed: true, stalled: true}, nil
	}
	return opResult{wall: 10 * time.Millisecond, units: 8, done: []float64{1}}, nil
}

func TestRunOpRetriesStalledAttempts(t *testing.T) {
	r := &stallingRunner{stalls: map[int]int{1: 2, 2: maxAttempts}, attempts: map[int]int{}}
	for i, want := range []struct {
		attempts, retried int
		failed            bool
	}{{1, 0, false}, {3, 2, false}, {maxAttempts, maxAttempts - 1, true}} {
		res, reg, err := runOp(r, i, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.attempts[i] != want.attempts || res.retried != want.retried || res.failed != want.failed {
			t.Errorf("op %d: %d attempts, %d retried, failed %v; want %d, %d, %v",
				i, r.attempts[i], res.retried, res.failed, want.attempts, want.retried, want.failed)
		}
		if want := time.Duration(want.retried) * 250 * time.Millisecond; res.retryWait != want {
			t.Errorf("op %d: retry wait %v, want %v", i, res.retryWait, want)
		}
		// Only the last attempt's registry comes back.
		if got := reg.Snapshot().Counters["attempts"]; got != 1 {
			t.Errorf("op %d: returned registry saw %d attempts, want 1", i, got)
		}
	}
	if _, reg, _ := runOp(r, 0, false, nil); reg != nil {
		t.Error("untraced op got an obs registry")
	}
}

func TestTapesDependOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		if w.fleet == nil {
			continue
		}
		a, err := newFleet(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newFleet(w, 7)
		c, _ := newFleet(w, 8)
		if !reflect.DeepEqual(a.tapes(3), b.tapes(3)) {
			t.Errorf("%s: same seed, same wave gave different tapes", w.name)
		}
		if reflect.DeepEqual(a.tapes(3), c.tapes(3)) {
			t.Errorf("%s: seeds 7 and 8 gave the same tapes", w.name)
		}
		if reflect.DeepEqual(a.tapes(3), a.tapes(4)) {
			t.Errorf("%s: waves 3 and 4 gave the same tapes", w.name)
		}
		// Session j of wave i+1 continues where wave i's seeds end.
		if a.sessionSeed(1, 0) != a.sessionSeed(0, w.fleet.sessions-1)+1 {
			t.Errorf("%s: wave seeds overlap or leave a gap", w.name)
		}
	}
	e1, err := newExplorer(7)
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := newExplorer(7)
	if !e1.input.Equal(e2.input) {
		t.Error("mc_explore: same seed gave different tapes")
	}
}

// benchmarkFile is the driver's description of this benchmark.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesDeclaredMetrics(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, have)
	}
	check := func(kind string, file []struct{ Name, Unit, Better string }, defs []metricDef) {
		var got []metricDef
		for _, m := range file {
			got = append(got, metricDef{m.Name, m.Unit, m.Better})
		}
		if !reflect.DeepEqual(got, defs) {
			t.Errorf("%s metrics differ:\nBENCHMARK.json %v\nprogram        %v", kind, got, defs)
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndMetrics)
	check("per_layer", bf.PerLayer, perLayerMetrics)
}

func metricNames(res result) []string {
	var names []string
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func defNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

// TestSmokeEveryWorkload runs each workload's untraced and traced pass with
// one warm-up op and a handful of timed ops, and checks the correctness gate
// and that exactly the declared metrics come out. A stalled attempt (the
// engine's known livelock) is retried; a failed op or a breach is not allowed.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) { smoke(t, w) })
	}
}

func smoke(t *testing.T, w workload) {
	w.warmupOps = 1
	r, err := newRunner(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := warmUp(r, w); err != nil {
		t.Fatal(err)
	}
	ops, _, err := measure(r, w.warmupOps, time.Minute, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if breach := firstBreach(ops); breach != nil {
		t.Error(breach)
	}
	res := endToEndResult(summarize(ops, timeoutMs(w)), 1, nil)
	if res.Attempted != 2 {
		t.Errorf("attempted %d ops, want 2", res.Attempted)
	}
	if got, want := metricNames(res), defNames(endToEndMetrics); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics %v, want %v", got, want)
	}
	if res.Failed != 0 {
		t.Errorf("%d ops failed", res.Failed)
	}
	for name, m := range res.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m.Value)
		}
	}

	d := 400 * time.Millisecond
	if w.fleet == nil {
		d = 800 * time.Millisecond // two explorations must fit the ops share
	}
	traced, err := runTraced(w, 1, d, "", io.Discard)
	if err != nil {
		t.Fatalf("traced pass: %v", err)
	}
	if !traced.Correct {
		t.Error("traced pass reported a breach")
	}
	if got, want := metricNames(traced), defNames(perLayerMetrics); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics %v, want %v", got, want)
	}
	// The budget rows and the self-time row sum to the traced cost.
	sum := traced.Metrics["wire.engine.self_us_per_unit"].Value + traced.Metrics["mc.self_us_per_unit"].Value
	for _, row := range budgetRows {
		sum += traced.Metrics[row].Value
	}
	if total := traced.Metrics["budget.traced_cpu_us_per_unit"].Value; total <= 0 || sum < 0.999*total || sum > 1.001*total {
		t.Errorf("budget rows sum to %v, traced cpu_us_per_unit is %v", sum, total)
	}
	if w.fleet == nil && traced.Metrics["mc.states_per_op"].Value != explorerStates {
		t.Errorf("mc.states_per_op = %v, want %d", traced.Metrics["mc.states_per_op"].Value, explorerStates)
	}
}

func TestLockstepReplayDeliversEveryTape(t *testing.T) {
	var ls lockstepper
	for _, w := range workloads {
		if w.fleet == nil {
			continue
		}
		f, err := newFleet(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		inputs := f.tapes(0)[:4]
		cfgs, err := f.sessions(0, inputs)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cfgs {
			frames := 0
			steps, err := ls.run(c.Sender, c.Receiver, len(c.Input), func(channel.Dir, msg.Msg) { frames++ })
			if err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
			if steps < len(c.Input) || frames < len(c.Input) {
				t.Errorf("%s: %d steps and %d frames for a %d-item tape", w.name, steps, frames, len(c.Input))
			}
		}
	}
}
