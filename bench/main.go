// Command bench is the repository's benchmark: four closed-loop workloads
// (three wire fleets and one model-checker exploration), six end-to-end
// metrics with the same names on every workload, and — with -trace 1 — a
// per-layer budget measured from outside the product. See README.md.
//
//	bash bench/run.sh -workload fleet_inproc -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; progress and tables go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"time"

	"seqtx/internal/obs"
)

// procStart is taken as early as the program can: set-up time is measured
// from here, so work a later change moves into package initialisation shows.
var procStart = time.Now()

// setupReps is how many cold set-ups (fresh child processes) one run times;
// setup_s is their median.
const setupReps = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name       = fs.String("workload", "", "workload to run (default: all four, one after another)")
		seed       = fs.Int64("seed", 1, "input seed: wave w, session i uses seed + w*sessions + i")
		seconds    = fs.Float64("seconds", 20, "how long the timed ops run")
		trace      = fs.Int("trace", 0, "1 = traced pass: per-layer metrics instead of end-to-end metrics")
		spansTo    = fs.String("spans", "", "traced pass: write the recorded spans to this file as JSON")
		setupChild = fs.Bool("setup-child", false, "internal: perform one cold set-up, print its duration, exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be > 0, -trace 0 or 1, and no positional arguments")
		return 2
	}
	todo := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{w}
	}
	if *setupChild {
		if len(todo) != 1 {
			fmt.Fprintln(stderr, "bench: -setup-child needs -workload")
			return 2
		}
		return runSetupChild(todo[0], *seed, stdout, stderr)
	}

	code := 0
	for _, w := range todo {
		var res result
		var err error
		if *trace == 1 {
			res, err = runTraced(w, *seed, duration(*seconds), *spansTo, stderr)
		} else {
			res, err = runEndToEnd(w, *seed, duration(*seconds), stderr)
		}
		if err != nil {
			// A harness failure: no result line, non-zero exit.
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printTable(stderr, w, res)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

func duration(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}

// metricValue and result are the driver's output schema.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricDef names one metric; BENCHMARK.json lists the same names, units and
// directions (a self-test holds the two together).
type metricDef struct {
	name, unit, better string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"goodput_per_s", "1/s", "higher"},
	{"done_p50_ms", "ms", "lower"},
	{"done_p90_ms", "ms", "lower"},
	{"cpu_us_per_unit", "us", "lower"},
	{"allocs_per_unit", "count", "lower"},
}

// newResult starts a result from the ops' failure counts; metrics are added
// with set, which checks the name against defs so that a typo cannot emit a
// metric BENCHMARK.json does not declare.
func newResult(attempted, failed int, breach error) result {
	return result{Correct: breach == nil, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
}

func (r result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared")
}

// maxAttempts bounds how often one op is tried. An attempt that stalls — some
// session still incomplete when the op's time-out ends it, which is what the
// engine's livelock looks like from outside (README.md, "Known hazard") — is
// retried on the same inputs, as a client whose request timed out would; the
// op fails only when its last attempt stalls too or any attempt breaches the
// correctness gate. At the measured stall rates (under 1 % of waves) six
// stalls in a row do not happen, so a run reports failed ops only when the
// product stops completing waves.
const maxAttempts = 6

// runOp runs op i until an attempt does not stall, at most maxAttempts times.
// The result is the last attempt's, carrying the count and wall time of the
// stalled attempts before it (summarize charges that wait to the op's requests
// and goodput, and no cost). With traced set every attempt gets a fresh obs
// registry, so a stalled attempt's counters are dropped with it, and the last
// one's is returned.
func runOp(r runner, i int, traced bool, spans *spanLog) (res opResult, reg *obs.Registry, err error) {
	var retried int
	var wait time.Duration
	for {
		reg = nil
		if traced {
			reg = obs.NewRegistry()
		}
		if res, err = r.op(i, reg, spans); err != nil {
			return res, reg, err
		}
		if !res.stalled || retried == maxAttempts-1 {
			res.retried, res.retryWait = retried, wait
			return res, reg, nil
		}
		retried++
		wait += res.wall
	}
}

// warmUp is the tail of set-up: w.warmupOps ops identical to timed ops. The
// time its stalled attempts took is returned so the caller keeps it out of
// setup_s — a livelocked wave must not move set-up time. A failed op during
// warm-up is an error: there is nothing worth timing after it.
func warmUp(r runner, w workload) (stalled int, stallWait time.Duration, err error) {
	for i := 0; i < w.warmupOps; i++ {
		res, _, err := runOp(r, i, false, nil)
		if err != nil {
			return stalled, stallWait, err
		}
		stalled += res.retried
		stallWait += res.retryWait
		if res.breach != nil {
			return stalled, stallWait, fmt.Errorf("warm-up: correctness breach: %w", res.breach)
		}
		if res.failed {
			return stalled, stallWait, fmt.Errorf("warm-up: op %d stalled %d times in a row", i, maxAttempts)
		}
	}
	return stalled, stallWait, nil
}

// setupReport is what a -setup-child prints.
type setupReport struct {
	SetupS        float64 `json:"setup_s"`
	WarmupStalled int     `json:"warmup_stalled"`
}

// runSetupChild performs one cold set-up — process start, input seeds,
// protocol tables, warm-up ops — and prints how long it took.
func runSetupChild(w workload, seed int64, stdout, stderr io.Writer) int {
	r, err := newRunner(w, seed)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	stalled, stallWait, err := warmUp(r, w)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rep := setupReport{SetupS: (time.Since(procStart) - stallWait).Seconds(), WarmupStalled: stalled}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		return 1
	}
	return 0
}

// coldSetup times one set-up in a fresh process of this same binary, so each
// repetition pays for runtime start, table construction and cold caches.
func coldSetup(w workload, seed int64, stderr io.Writer) (setupReport, error) {
	self, err := os.Executable()
	if err != nil {
		return setupReport{}, err
	}
	cmd := exec.Command(self, "-setup-child", "-workload", w.name, "-seed", fmt.Sprint(seed))
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return setupReport{}, fmt.Errorf("set-up child: %w", err)
	}
	var rep setupReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return setupReport{}, fmt.Errorf("set-up child output %q: %w", out, err)
	}
	return rep, nil
}

// measure runs ops first, first+1, ... one at a time until d has elapsed (or
// maxOps ops ran, when maxOps > 0). With tr non-nil (the traced pass) every
// second op gets an obs registry and spans, a clean one's counters are folded
// into tr, and at least one op of each kind runs however short d is. Stalled
// attempts are retried by runOp and count towards d.
func measure(r runner, first int, d time.Duration, maxOps int, tr *tracing) (plain, withObs []opResult, err error) {
	start := time.Now()
	for k := 0; (time.Since(start) < d || (tr != nil && k < 2)) && (maxOps <= 0 || k < maxOps); k++ {
		var spans *spanLog
		traced := tr != nil && k%2 == 1
		if tr != nil {
			tr.sampleHeap()
		}
		if traced {
			spans = tr.spans
		}
		res, reg, err := runOp(r, first+k, traced, spans)
		if err != nil {
			return nil, nil, err
		}
		if reg == nil {
			plain = append(plain, res)
			continue
		}
		if !res.failed {
			tr.totals.add(reg.Snapshot())
		}
		withObs = append(withObs, res)
	}
	return plain, withObs, nil
}

func firstBreach(series ...[]opResult) error {
	for _, ops := range series {
		for _, op := range ops {
			if op.breach != nil {
				return op.breach
			}
		}
	}
	return nil
}

func timeoutMs(w workload) float64 { return float64(w.timeout.Nanoseconds()) / 1e6 }

// runEndToEnd is the untraced pass: setupReps cold set-ups, one in-process
// set-up to warm this process, then timed ops with obs off.
func runEndToEnd(w workload, seed int64, d time.Duration, stderr io.Writer) (result, error) {
	setups := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		sr, err := coldSetup(w, seed, stderr)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, sr.SetupS)
	}
	r, err := newRunner(w, seed)
	if err != nil {
		return result{}, err
	}
	if _, _, err := warmUp(r, w); err != nil {
		return result{}, err
	}
	ops, _, err := measure(r, w.warmupOps, d, 0, nil)
	if err != nil {
		return result{}, err
	}
	s := summarize(ops, timeoutMs(w))
	if s.attempted == s.failed {
		return result{}, fmt.Errorf("all %d ops failed", s.attempted)
	}
	breach := firstBreach(ops)
	if breach != nil {
		fmt.Fprintf(stderr, "bench: %s: CORRECTNESS BREACH: %v\n", w.name, breach)
	}
	res := endToEndResult(s, median(setups), breach)
	fmt.Fprintf(stderr, "%s: ops attempted %d failed %d; stalled attempts retried %d (%.2f s); requests attempted %d failed %d\n",
		w.name, s.attempted, s.failed, s.stalled, s.stallWait.Seconds(), s.requests, s.requestsMissed)
	return res, nil
}

func endToEndResult(s summary, setupS float64, breach error) result {
	res := newResult(s.attempted, s.failed, breach)
	res.set(endToEndMetrics, "setup_s", setupS)
	res.set(endToEndMetrics, "goodput_per_s", s.goodput)
	res.set(endToEndMetrics, "done_p50_ms", s.doneP50)
	res.set(endToEndMetrics, "done_p90_ms", s.doneP90)
	res.set(endToEndMetrics, "cpu_us_per_unit", s.cpuUsPerUnit)
	res.set(endToEndMetrics, "allocs_per_unit", s.allocsPerUnit)
	return res
}

// printTable prints a result's metrics by name with their units.
func printTable(out io.Writer, w workload, res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(out, "%-20s %-38s %16.4f %s\n", w.name, name, m.Value, m.Unit)
	}
}
