package sim

import (
	"fmt"
	"strconv"
	"time"

	"seqtx/internal/channel"
	"seqtx/internal/obs"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/trace"
)

// Result summarizes one run.
type Result struct {
	// Steps is the number of scheduler steps taken.
	Steps int
	// Output is the final output tape Y.
	Output seq.Seq
	// OutputComplete reports whether Y = X (liveness achieved).
	OutputComplete bool
	// Quiescent reports whether the sender was done and the S→R half empty
	// when the run stopped.
	Quiescent bool
	// SafetyViolation is the first "Y not a prefix of X" error, if any.
	SafetyViolation error
	// Stalled reports that the progress watchdog fired: the run made no
	// output progress for Config.ProgressDeadline consecutive steps while
	// Y was still incomplete. On a fair schedule this is a liveness
	// failure; on an unfair one it only measures the starvation.
	Stalled bool
	// StallStep is the step at which the watchdog fired (valid iff Stalled).
	StallStep int
	// WallClockExceeded reports the per-run wall-clock budget ran out. It
	// is a harness safety net, not a model verdict: a run cut short this
	// way is inconclusive (never a liveness failure), and only CutStep —
	// not the wall-clock budget — makes the prefix replayable.
	WallClockExceeded bool
	// CutStep is the step at which the wall-clock watchdog cut the run
	// (valid iff WallClockExceeded). Because the budget is only polled
	// every wallClockCheckEvery steps, the run may have overshot the
	// budget by up to wallClockCheckEvery-1 steps before the cut; CutStep
	// records where it actually stopped, so a replay with MaxSteps =
	// CutStep reproduces the exact prefix.
	CutStep int
	// LearnTimes[i] is the step at which Y first had length i+1 (R wrote
	// the (i+1)-th item) — an observable proxy for the paper's t_i (R
	// knows x_i no later than it writes it; the epistemic package computes
	// the exact t_i from explored run sets).
	LearnTimes []int
}

// Config controls a run.
type Config struct {
	// MaxSteps bounds the run length (required, > 0).
	MaxSteps int
	// StopWhenComplete stops as soon as Y = X.
	StopWhenComplete bool
	// RecordTrace attaches a trace recorder to the world.
	RecordTrace bool
	// ProgressDeadline, when > 0, arms the progress watchdog: a run whose
	// output tape does not grow for this many consecutive steps (while
	// still incomplete) is halted with Result.Stalled set, so a stalling
	// schedule is reported as a liveness failure instead of burning the
	// whole step budget.
	ProgressDeadline int
	// MaxWallClock, when > 0, halts the run once it has consumed that much
	// wall-clock time (checked every few steps). Deterministic replays are
	// unaffected as long as the budget is generous; it exists so a soak
	// campaign can never hang on one pathological run.
	MaxWallClock time.Duration
	// Obs, when non-nil, receives run metrics (steps, output growth,
	// verdicts, the LearnTimes histogram — the paper's t_i) and watchdog
	// events. All instrumentation happens outside the step loop, so a nil
	// registry costs one branch per run and an enabled one cannot perturb
	// the run itself (see the obs package doc).
	Obs *obs.Registry
}

// wallClockCheckEvery is how often (in steps) the wall-clock budget is
// polled; a power of two keeps the modulo cheap.
const wallClockCheckEvery = 256

// Run drives the world with the adversary until MaxSteps, completion
// (when requested), a safety violation, or a watchdog verdict. It returns
// an error only for mechanical failures (a protocol escaping its
// alphabet, an adversary picking an impossible action); protocol
// misbehaviour is reported in the Result.
func Run(w *World, adv Adversary, cfg Config) (Result, error) {
	if cfg.MaxSteps <= 0 {
		return Result{}, fmt.Errorf("sim: MaxSteps must be positive, got %d", cfg.MaxSteps)
	}
	return run(w, adv, nil, cfg)
}

// Accept is the one judge of a recorded schedule: it plays script on w
// exactly, through Run's step loop, and fails at the first action
// World.Replayable rejects — nothing is skipped or chosen in its place.
// A positive cfg.MaxSteps only shortens the script; Run's other stops end
// the play as they end a run.
func Accept(w *World, script []trace.Action, cfg Config) (Result, error) {
	if cfg.MaxSteps <= 0 || cfg.MaxSteps > len(script) {
		cfg.MaxSteps = len(script)
	}
	return run(w, nil, script, cfg)
}

// run is the step loop of Run (adv chooses) and Accept (adv nil, script).
func run(w *World, adv Adversary, script []trace.Action, cfg Config) (Result, error) {
	if cfg.RecordTrace && w.Trace == nil {
		w.StartTrace()
	}
	var res Result
	start := time.Now()
	lastProgress := 0
	var enabled []trace.Action // one buffer: no adversary keeps it past Choose
	for step := 0; step < cfg.MaxSteps; step++ {
		if w.SafetyViolation != nil {
			break
		}
		if cfg.StopWhenComplete && w.OutputComplete() {
			break
		}
		if cfg.ProgressDeadline > 0 && !w.OutputComplete() && step-lastProgress >= cfg.ProgressDeadline {
			res.Stalled = true
			res.StallStep = step
			break
		}
		if cfg.MaxWallClock > 0 && step%wallClockCheckEvery == wallClockCheckEvery-1 &&
			time.Since(start) > cfg.MaxWallClock {
			res.WallClockExceeded = true
			res.CutStep = step
			break
		}
		before := len(w.Output)
		var act trace.Action
		if adv != nil {
			enabled = w.AppendEnabled(enabled[:0])
			act = adv.Choose(w, enabled)
		} else if act = script[step]; !w.Replayable(act) {
			return res, fmt.Errorf("sim: accept step %d: %s not enabled", step, act)
		}
		if err := w.Apply(act); err != nil {
			return res, fmt.Errorf("sim: step %d (%s): %w", step, act, err)
		}
		res.Steps++
		if len(w.Output) > before {
			lastProgress = step
		}
		for i := before; i < len(w.Output); i++ {
			res.LearnTimes = append(res.LearnTimes, w.Time-1)
		}
	}
	res.Output = w.Output.Clone()
	res.OutputComplete = w.OutputComplete()
	res.Quiescent = w.Quiescent()
	res.SafetyViolation = w.SafetyViolation
	observeRun(cfg.Obs, cfg, res)
	return res, nil
}

// observeRun flushes one run's metrics and watchdog events into the
// registry. It runs after the step loop, on already-computed results, so
// enabling it can never change a run; with r == nil it is a no-op.
func observeRun(r *obs.Registry, cfg Config, res Result) {
	if r == nil {
		return
	}
	r.Counter("sim_runs_total").Inc()
	r.Counter("sim_steps_total").Add(int64(res.Steps))
	r.Counter("sim_output_items_total").Add(int64(len(res.Output)))
	learn := r.Histogram("sim_learn_time_steps", obs.StepBuckets)
	for _, t := range res.LearnTimes {
		learn.Observe(float64(t))
	}
	switch {
	case res.SafetyViolation != nil:
		r.Counter("sim_runs_safety_violation_total").Inc()
	case res.Stalled:
		r.Counter("sim_runs_stalled_total").Inc()
		r.Emit("sim.watchdog.fired", "watchdog", "progress",
			"step", strconv.Itoa(res.StallStep),
			"deadline", strconv.Itoa(cfg.ProgressDeadline))
	case res.WallClockExceeded:
		r.Counter("sim_runs_wallclock_cut_total").Inc()
		r.Emit("sim.watchdog.fired", "watchdog", "wall-clock",
			"cut_step", strconv.Itoa(res.CutStep),
			"budget", cfg.MaxWallClock.String())
	case res.OutputComplete:
		r.Counter("sim_runs_complete_total").Inc()
	case res.Quiescent:
		r.Counter("sim_runs_quiescent_total").Inc()
	default:
		r.Counter("sim_runs_maxsteps_total").Inc()
	}
}

// RunProtocol is the one-call convenience: build a world for spec × input
// × channel kind, drive it with adv under cfg.
func RunProtocol(spec protocol.Spec, input seq.Seq, kind channel.Kind, adv Adversary, cfg Config) (Result, error) {
	link, err := channel.NewLinkOfKind(kind)
	if err != nil {
		return Result{}, err
	}
	w, err := New(spec, input, link)
	if err != nil {
		return Result{}, err
	}
	return Run(w, adv, cfg)
}
