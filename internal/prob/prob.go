// Package prob implements the probabilistic evaluation the paper's §6
// asks for: "it would be interesting to see how allowing a small chance
// of error would affect our results". Instead of an adversarial channel,
// runs are driven by seeded random schedules, and the quantity of
// interest is the empirical probability that a protocol violates safety
// or fails to complete.
//
// Theorems 1 and 2 say the POSSIBILITY of failure is unavoidable once
// |X| > alpha(m); this package measures how small the PROBABILITY can be
// made (e.g. by widening modseq's sequence-number window).
package prob

import (
	"fmt"
	"runtime"

	"seqtx/internal/chanmodel"
	"seqtx/internal/channel"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
)

// Estimate is a Monte-Carlo tally over independent runs.
type Estimate struct {
	Trials     int
	Violations int // runs that broke safety
	Completed  int // runs with Y = X within the step budget
	Stalled    int // runs that neither completed nor violated
	Steps      int // scheduler steps summed over all trials
	Items      int // output items delivered summed over all trials
}

// ViolationRate returns the fraction of trials that broke safety.
func (e Estimate) ViolationRate() float64 {
	if e.Trials == 0 {
		return 0
	}
	return float64(e.Violations) / float64(e.Trials)
}

// CompletionRate returns the fraction of trials that delivered all of X.
func (e Estimate) CompletionRate() float64 {
	if e.Trials == 0 {
		return 0
	}
	return float64(e.Completed) / float64(e.Trials)
}

// Goodput returns delivered items per scheduler step, aggregated over
// all trials — the frontier's y-axis. Zero when no steps ran.
func (e Estimate) Goodput() float64 {
	if e.Steps == 0 {
		return 0
	}
	return float64(e.Items) / float64(e.Steps)
}

// String renders the estimate.
func (e Estimate) String() string {
	return fmt.Sprintf("trials=%d violations=%d (%.1f%%) completed=%d stalled=%d",
		e.Trials, e.Violations, 100*e.ViolationRate(), e.Completed, e.Stalled)
}

// Config controls a Monte-Carlo campaign.
type Config struct {
	// Trials is the number of independent runs (required > 0).
	Trials int
	// MaxSteps bounds each run (default 600 + 200·|X|).
	MaxSteps int
	// Seed seeds trial i with Seed + i.
	Seed int64
	// FairnessBudget is the finite-delay budget wrapped around the random
	// schedule (default 8). Larger budgets mean harsher reordering and
	// more stale traffic.
	FairnessBudget int
	// DropWeight biases the random schedule toward drop actions on del
	// channels (0 = never drop).
	DropWeight int
	// Parallelism is the number of worker goroutines running trials
	// (default: GOMAXPROCS). Results are independent of the worker count.
	Parallelism int
	// NewAdversary, when set, overrides the default random schedule: trial
	// i runs under NewAdversary(i). Note that the finite-delay wrapper is
	// NOT applied to custom adversaries: on dup channels forced redelivery
	// of everything overdue floods the receiver with stale copies, which
	// models a hostile network rather than a merely random one. Custom
	// factories must guarantee liveness themselves (e.g. build on
	// sim.NewRoundRobin or sim.NewReplayer).
	NewAdversary func(trial int) sim.Adversary
	// Model, when set, drives every trial with the quantitative channel
	// model instead of the adversarial random schedule: trial i runs
	// under chanmodel.NewAdversary(Model, Seed+i). The channel kind
	// passed to Run should be Model.Kind() (checked). Mutually exclusive
	// with NewAdversary; DropWeight and FairnessBudget are ignored.
	Model chanmodel.Model
}

func (c *Config) normalize(inputLen int) error {
	if c.Trials <= 0 {
		return fmt.Errorf("prob: Trials must be positive, got %d", c.Trials)
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 600 + 200*inputLen
	}
	if c.FairnessBudget == 0 {
		c.FairnessBudget = 8
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return nil
}

// Run estimates failure probabilities of (spec, input, kind) under random
// fair schedules. Trials are independent and run across Parallelism
// workers; the tally is deterministic for a fixed Seed regardless of the
// worker count (each trial's adversary is seeded by its index alone).
func Run(spec protocol.Spec, input seq.Seq, kind channel.Kind, cfg Config) (Estimate, error) {
	if err := cfg.normalize(len(input)); err != nil {
		return Estimate{}, err
	}
	if cfg.Model != nil {
		if cfg.NewAdversary != nil {
			return Estimate{}, fmt.Errorf("prob: Model and NewAdversary are mutually exclusive")
		}
		if err := chanmodel.Compatible(cfg.Model, kind); err != nil {
			return Estimate{}, fmt.Errorf("prob: %w", err)
		}
	}
	type outcome struct {
		violation bool
		completed bool
		steps     int
		items     int
		err       error
	}
	outcomes := make([]outcome, cfg.Trials)
	sim.ForEach(cfg.Trials, cfg.Parallelism, func(i int) {
		var adv sim.Adversary
		switch {
		case cfg.Model != nil:
			adv = chanmodel.NewAdversary(cfg.Model, cfg.Seed+int64(i))
		case cfg.NewAdversary != nil:
			adv = cfg.NewAdversary(i)
		case cfg.DropWeight > 0:
			adv = sim.NewFinDelay(sim.NewRandomDropper(cfg.Seed+int64(i), cfg.DropWeight), cfg.FairnessBudget)
		default:
			adv = sim.NewFinDelay(sim.NewRandom(cfg.Seed+int64(i)), cfg.FairnessBudget)
		}
		res, err := sim.RunProtocol(spec, input, kind, adv, sim.Config{
			MaxSteps:         cfg.MaxSteps,
			StopWhenComplete: true,
		})
		outcomes[i] = outcome{
			violation: res.SafetyViolation != nil,
			completed: res.OutputComplete,
			steps:     res.Steps,
			items:     len(res.Output),
			err:       err,
		}
	})

	var est Estimate
	for i, o := range outcomes {
		if o.err != nil {
			return est, fmt.Errorf("prob: trial %d: %w", i, o.err)
		}
		est.Trials++
		est.Steps += o.steps
		est.Items += o.items
		switch {
		case o.violation:
			est.Violations++
		case o.completed:
			est.Completed++
		default:
			est.Stalled++
		}
	}
	return est, nil
}
