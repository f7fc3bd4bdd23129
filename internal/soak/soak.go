// Package soak runs fault-injection campaigns: a seeded matrix of
// protocol × channel kind × adversary × fault plan cells, each executed
// under the run watchdogs and audited against the model's invariants —
// safety (Y a prefix of X), alphabet containment (enforced online by the
// link), channel conservation (check.Audit), quiescence, and liveness
// under fairness (the progress watchdog's verdict on fair schedules).
//
// The campaign's point is the paper's two-sided claim made executable:
// every in-model fault plan (burst drops, partition-then-heal — legal
// resolutions of Property 1b) must leave the tight protocol safe and
// live, while out-of-model plans (corruption, crash-restart) are allowed
// — expected — to break the weaker protocols. A safety violation is
// captured as a trace and delta-debugged (ddmin) down to a 1-minimal
// action sequence whose replay still reproduces the violation.
package soak

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"seqtx/internal/channel"
	"seqtx/internal/check"
	"seqtx/internal/faults"
	"seqtx/internal/obs"
	"seqtx/internal/protocol"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
)

// Case is one campaign cell: a fully specified, seeded run.
type Case struct {
	// Protocol names a registry protocol. Ignored when Spec is set.
	Protocol string
	// Spec overrides the registry lookup (tests inject hand-built specs).
	Spec protocol.Spec
	// Params carries the protocol's knobs (Seed is overwritten from Seed).
	Params registry.Params
	// Input is the tape X.
	Input seq.Seq
	// Kind is the channel model.
	Kind channel.Kind
	// Adversary names a registry adversary.
	Adversary string
	// Plan names a faults preset ("" means "none").
	Plan string
	// Seed makes the run reproducible. It is never used directly:
	// build derives one independent sub-seed per randomness consumer
	// (protocol internals, adversary scheduling) so the streams are
	// decorrelated while replays stay seed-exact.
	Seed int64
	// Fair records whether the schedule is fair in the limit; only fair
	// runs owe liveness, so only their stalls count as violations.
	Fair bool
	// MayFail marks cells where a violation is an expected outcome
	// (out-of-model plans, protocols run outside their safe channel).
	MayFail bool
}

// ID renders the cell coordinates compactly for logs and reports.
func (c Case) ID() string {
	return fmt.Sprintf("%s/%s/%s/%s/seed=%d", c.protocolName(), c.Kind, c.Adversary, c.planName(), c.Seed)
}

func (c Case) protocolName() string {
	if c.Spec.Name != "" {
		return c.Spec.Name
	}
	return c.Protocol
}

func (c Case) planName() string {
	if c.Plan == "" {
		return "none"
	}
	return c.Plan
}

// Stream tags for faults.SubSeed: arbitrary fixed 64-bit constants, one per
// randomness consumer, so each draws from its own decorrelated stream.
const (
	streamProtocol  uint64 = 0x70726f746f636f6c // "protocol"
	streamAdversary uint64 = 0x6164766572736172 // "adversar(y)"
	streamFaults    uint64 = 0x736372616d626c65 // "scramble"
)

// build assembles the world, the plan-wrapped adversary, and the plan for
// one fresh execution of the case. Every call returns independent state,
// so a case can be run, re-run, and replayed without interference.
func (c Case) build() (*sim.World, sim.Adversary, *faults.Plan, error) {
	spec := c.Spec
	if spec.NewSender == nil {
		p := c.Params
		p.Seed = faults.SubSeed(c.Seed, streamProtocol)
		var err error
		spec, err = registry.Protocol(c.Protocol, p)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	fs, err := faults.PresetSpec(c.planName())
	if err != nil {
		return nil, nil, nil, err
	}
	// The scramble-corruption stream is its own sub-seed: recorded traces
	// carry the realized per-point seeds in their scramble actions, so
	// replays are exact even though the plan is rebuilt fresh.
	plan := fs.PlanSeeded(faults.SubSeed(c.Seed, streamFaults))
	link, err := plan.Link(c.Kind)
	if err != nil {
		return nil, nil, nil, err
	}
	w, err := sim.New(spec, c.Input, link)
	if err != nil {
		return nil, nil, nil, err
	}
	p := c.Params
	p.Seed = faults.SubSeed(c.Seed, streamAdversary)
	adv, err := registry.Adversary(c.Adversary, p)
	if err != nil {
		return nil, nil, nil, err
	}
	return w, plan.Wrap(adv), plan, nil
}

// Config bounds every run of a campaign.
type Config struct {
	// MaxSteps bounds each run (default 4000).
	MaxSteps int
	// ProgressDeadline arms the progress watchdog (default 600 steps).
	ProgressDeadline int
	// MaxWallClock is the per-run wall-clock budget (default 10s).
	MaxWallClock time.Duration
	// Workers bounds the worker pool (default GOMAXPROCS).
	Workers int
	// DisableShrink skips counterexample minimization.
	DisableShrink bool
	// MaxShrinkReplays bounds the ddmin oracle budget (default 400).
	MaxShrinkReplays int
	// Obs, when non-nil, receives campaign metrics (cells by verdict,
	// shrink effort) and run events, and is threaded into every sim.Run.
	// All updates are atomic and flushed outside run loops, so a shared
	// registry is safe across the worker pool and a nil one is free.
	Obs *obs.Registry
}

func (cfg Config) withDefaults() Config {
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 4000
	}
	if cfg.ProgressDeadline <= 0 {
		cfg.ProgressDeadline = 600
	}
	if cfg.MaxWallClock <= 0 {
		cfg.MaxWallClock = 10 * time.Second
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxShrinkReplays <= 0 {
		cfg.MaxShrinkReplays = 400
	}
	return cfg
}

// Campaign is a named batch of cases run under one config.
type Campaign struct {
	Name   string
	Cases  []Case
	Config Config
}

// Run executes every case across a bounded worker pool. Results land at
// their case's index, so the report order is deterministic regardless of
// scheduling, and each case is itself seeded — the whole report is a
// reproducible function of (cases, config).
func (cmp *Campaign) Run() *Report {
	cfg := cmp.Config.withDefaults()
	cfg.Obs.Emit("soak.campaign.started",
		"campaign", cmp.Name, "cases", strconv.Itoa(len(cmp.Cases)))
	runs := make([]RunReport, len(cmp.Cases))
	sim.ForEach(len(cmp.Cases), cfg.Workers, func(j int) {
		runs[j] = RunCase(cmp.Cases[j], cfg)
	})
	rep := &Report{Campaign: cmp.Name, Runs: runs}
	rep.summarize()
	cfg.Obs.Emit("soak.campaign.finished",
		"campaign", cmp.Name,
		"total", strconv.Itoa(rep.Summary.Total),
		"complete", strconv.Itoa(rep.Summary.Complete),
		"unexpected", strconv.Itoa(rep.Summary.UnexpectedViolations))
	return rep
}

// Run outcomes.
const (
	// OutcomeComplete: Y = X, no violation.
	OutcomeComplete = "complete"
	// OutcomeSafety: Y stopped being a prefix of X.
	OutcomeSafety = "safety-violation"
	// OutcomeLivenessStall: the progress watchdog fired on a fair run.
	OutcomeLivenessStall = "liveness-stall"
	// OutcomeUnfairStall: the watchdog fired on an unfair run (starvation
	// measured, nothing owed).
	OutcomeUnfairStall = "stalled-unfair"
	// OutcomeQuiescent: sender done, channel drained, Y incomplete — the
	// run is dead regardless of schedule.
	OutcomeQuiescent = "quiescent-incomplete"
	// OutcomeMaxSteps: step budget exhausted, inconclusive.
	OutcomeMaxSteps = "max-steps"
	// OutcomeWallClock: wall-clock budget exhausted, inconclusive.
	OutcomeWallClock = "wall-clock-exceeded"
	// OutcomeError: the harness itself failed (alphabet escape, impossible
	// action) — always unexpected.
	OutcomeError = "mechanical-error"
)

// Violation classes (empty string = none).
const (
	ViolationSafety       = "safety"
	ViolationLiveness     = "liveness"
	ViolationConservation = "conservation"
	ViolationMechanical   = "mechanical"
)

// RunCase executes one case under cfg: build, run with watchdogs, audit
// the trace, classify, and (for safety violations) shrink the
// counterexample.
func RunCase(c Case, cfg Config) RunReport {
	cfg = cfg.withDefaults()
	rep := RunReport{
		Protocol:  c.protocolName(),
		Channel:   c.Kind.String(),
		Adversary: c.Adversary,
		Plan:      c.planName(),
		Seed:      c.Seed,
		Fair:      c.Fair,
		MayFail:   c.MayFail,
	}
	w, adv, plan, err := c.build()
	if err != nil {
		rep.Outcome = OutcomeError
		rep.Violation = ViolationMechanical
		rep.Error = err.Error()
		rep.Expected = false
		return rep
	}
	rep.InModel = plan.InModel()
	cfg.Obs.Emit("soak.run.started", "case", c.ID())
	w.StartTrace()
	res, runErr := sim.Run(w, adv, sim.Config{
		MaxSteps:         cfg.MaxSteps,
		StopWhenComplete: true,
		ProgressDeadline: cfg.ProgressDeadline,
		MaxWallClock:     cfg.MaxWallClock,
		Obs:              cfg.Obs,
	})
	rep.Steps = res.Steps
	rep.Output = res.Output.String()
	if res.WallClockExceeded {
		rep.CutStep = res.CutStep
	}

	switch {
	case runErr != nil:
		rep.Outcome = OutcomeError
		rep.Violation = ViolationMechanical
		rep.Error = runErr.Error()
	case res.SafetyViolation != nil:
		rep.Outcome = OutcomeSafety
		rep.Violation = ViolationSafety
		rep.Error = res.SafetyViolation.Error()
	case res.OutputComplete:
		rep.Outcome = OutcomeComplete
	case res.Stalled && c.Fair:
		rep.Outcome = OutcomeLivenessStall
		rep.Violation = ViolationLiveness
		rep.Error = fmt.Sprintf("no output progress for %d steps (stalled at step %d with Y = %s)",
			cfg.ProgressDeadline, res.StallStep, res.Output)
	case res.Stalled:
		rep.Outcome = OutcomeUnfairStall
	case res.WallClockExceeded:
		rep.Outcome = OutcomeWallClock
	case res.Quiescent:
		rep.Outcome = OutcomeQuiescent
		rep.Violation = ViolationLiveness
		rep.Error = fmt.Sprintf("quiescent with Y = %s (nothing in flight can extend it)", res.Output)
	default:
		rep.Outcome = OutcomeMaxSteps
	}

	rep.Audit = auditTrace(w, plan, c.Kind)
	if rep.Violation == "" && rep.Audit != auditOK && rep.Audit != auditSkipped {
		rep.Violation = ViolationConservation
	}
	rep.Expected = rep.Violation == "" || (c.MayFail && rep.Violation != ViolationMechanical)

	if rep.Violation != "" {
		cfg.Obs.Emit("soak.violation.captured",
			"case", c.ID(), "class", rep.Violation, "expected", strconv.FormatBool(rep.Expected))
	}
	if rep.Violation == ViolationSafety && !cfg.DisableShrink && w.Trace != nil {
		rep.Counterexample = shrinkCase(c, w.Trace, cfg.MaxShrinkReplays, cfg.Obs)
	}
	observeRunReport(cfg.Obs, rep)
	return rep
}

// observeRunReport flushes one classified cell into the registry,
// mirroring the Summary buckets so the metrics cross-check the report.
func observeRunReport(r *obs.Registry, rep RunReport) {
	if r == nil {
		return
	}
	r.Counter("soak_cells_total").Inc()
	switch {
	case rep.Violation != "" && rep.Expected:
		r.Counter("soak_cells_expected_violation_total").Inc()
	case rep.Violation != "":
		r.Counter("soak_cells_unexpected_violation_total").Inc()
	case rep.Outcome == OutcomeComplete:
		r.Counter("soak_cells_complete_total").Inc()
	default:
		r.Counter("soak_cells_inconclusive_total").Inc()
	}
	r.Emit("soak.run.finished",
		"case", rep.ID(), "outcome", rep.Outcome, "steps", strconv.Itoa(rep.Steps))
}

const (
	auditOK      = "ok"
	auditSkipped = "skipped"
)

// auditTrace re-checks the recorded run with the independent auditor.
// Corrupting plans are skipped (delivered-but-never-sent is precisely what
// corruption fabricates), as are kinds whose fault menu fits neither
// conservation law (FIFO duplication delivers without consuming).
func auditTrace(w *sim.World, plan *faults.Plan, kind channel.Kind) string {
	if w.Trace == nil || plan.Corrupting() {
		return auditSkipped
	}
	var mode check.Mode
	switch kind {
	case channel.KindDup:
		mode = check.ModeDup
	case channel.KindDel, channel.KindReorder:
		mode = check.ModeDel
	default:
		return auditSkipped
	}
	audit, err := check.Audit(w.Trace, mode)
	if err != nil {
		return err.Error()
	}
	if !audit.ConservationOK {
		return audit.Errors[0].Error()
	}
	return auditOK
}
