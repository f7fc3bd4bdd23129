package mc

import (
	"fmt"

	"seqtx/internal/channel"
	"seqtx/internal/obs"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
)

// BoundedReport summarizes a boundedness check (Definition 2, or the weak
// §5 variant when OldMessagesAllowed).
type BoundedReport struct {
	// Samples is the number of points checked.
	Samples int
	// MaxRecovery is the worst-case number of extension steps needed for
	// R to write the next item, over all recovered sample points.
	MaxRecovery int
	// Unrecovered counts sample points with no recovery within Budget —
	// evidence of unboundedness when the budget is generous.
	Unrecovered int
	// PerPosition[i] is the worst recovery when the next item was i+1
	// (0-based i = items already written); -1 marks unrecovered.
	PerPosition map[int]int
	// OldMessagesAllowed records which definition was checked: false =
	// Definition 2 (only messages sent in the extension may be delivered),
	// true = the weak variant.
	OldMessagesAllowed bool
}

// Bounded reports whether every sampled point recovered within budget.
func (r *BoundedReport) Bounded() bool { return r.Unrecovered == 0 }

// BoundedConfig controls the check.
type BoundedConfig struct {
	// Budget is the maximum extension length searched (the constant
	// candidate for f; required > 0).
	Budget int
	// MaxStates caps each per-point BFS (0 = 1<<18).
	MaxStates int
	// OldMessagesAllowed switches to the weak variant: the extension may
	// deliver messages that were already in flight at the sample point.
	// Definition 2 (false) demands recovery from fresh messages alone.
	OldMessagesAllowed bool
	// SampleEvery takes every k-th state of the driving run as a sample
	// point (0 = every state). For the weak variant only the states
	// immediately after a write (the paper's t_i points) are sampled,
	// regardless of this setting.
	SampleEvery int
	// Sampler drives the run whose states are sampled (nil = the
	// canonical fault-free round-robin schedule). Definition 2 quantifies
	// over every point of every run, so checking from the points of a
	// FAULTY run — e.g. sim.NewBudgetDropper — is the stronger test: it
	// is exactly where unbounded protocols fail to recover.
	Sampler sim.Adversary
	// Obs, when non-nil, receives each per-point recovery search's
	// metrics (see ExploreConfig.Obs; no per-level events).
	Obs *obs.Registry
}

func (c *BoundedConfig) normalize() error {
	if c.Budget <= 0 {
		return fmt.Errorf("mc: Budget must be positive, got %d", c.Budget)
	}
	if c.MaxStates == 0 {
		c.MaxStates = 1 << 18
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 1
	}
	return nil
}

// CheckBounded samples points along a canonical fair run of (spec, input,
// kind) and, from each point with unwritten items remaining, searches for
// an extension in which R writes the next item within Budget steps. Under
// Definition 2 (OldMessagesAllowed == false) the extension may only
// deliver copies sent after the sample point, realizing the paper's
// clause dlvrble(r_t, t') >= dlvrble(r_t, t): long-lost messages stay
// lost. Drops are never used in extensions (they only remove options).
//
// Writes are used as the observable proxy for the paper's knowledge times
// t_i: for every protocol in this repository R writes an item in the same
// step it first knows it, except the batched commits of afwz/hybrid,
// whose writes happen at the commit message — which is also exactly when
// knowledge arrives (the epistemic package verifies this on explored run
// sets).
func CheckBounded(spec protocol.Spec, input seq.Seq, kind channel.Kind, cfg BoundedConfig) (*BoundedReport, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	points, err := samplePoints(spec, input, kind, cfg)
	if err != nil {
		return nil, err
	}
	rep := &BoundedReport{PerPosition: make(map[int]int), OldMessagesAllowed: cfg.OldMessagesAllowed}
	if len(points) == 0 {
		return rep, nil
	}
	// One table serves every search, run in sequence: the points lie on
	// one run, so their extensions ask the same local questions over and
	// over.
	sys := sim.NewSystem(points[0])
	for _, p := range points {
		rep.Samples++
		pos := len(p.Output)
		steps, err := recoverySearch(sys, p, cfg)
		if err != nil {
			return nil, err
		}
		if steps < 0 {
			rep.Unrecovered++
			rep.PerPosition[pos] = -1
			continue
		}
		if prev, ok := rep.PerPosition[pos]; !ok || (prev >= 0 && steps > prev) {
			rep.PerPosition[pos] = steps
		}
		if steps > rep.MaxRecovery {
			rep.MaxRecovery = steps
		}
	}
	return rep, nil
}

// samplePoints drives a canonical fair run and clones the world at sample
// points that still have items left to write.
func samplePoints(spec protocol.Spec, input seq.Seq, kind channel.Kind, cfg BoundedConfig) ([]*sim.World, error) {
	link, err := channel.NewLinkOfKind(kind)
	if err != nil {
		return nil, err
	}
	w, err := sim.New(spec, input, link)
	if err != nil {
		return nil, err
	}
	var adv sim.Adversary = sim.NewRoundRobin()
	if cfg.Sampler != nil {
		adv = cfg.Sampler
	}
	var points []*sim.World
	maxSteps := 200 * (len(input) + 2)
	prevWritten := -1
	var enabled []trace.Action
	for step := 0; step < maxSteps && !w.OutputComplete(); step++ {
		if cfg.OldMessagesAllowed {
			// Weak variant: sample the paper's t_i points — immediately
			// after a write (including the initial point, "t_0").
			if len(w.Output) != prevWritten {
				prevWritten = len(w.Output)
				points = append(points, w.Clone())
			}
		} else if step%cfg.SampleEvery == 0 {
			points = append(points, w.Clone())
		}
		enabled = w.AppendEnabled(enabled[:0])
		if err := w.Apply(adv.Choose(w, enabled)); err != nil {
			return nil, err
		}
	}
	return points, nil
}

// recNode is a point of an extension by identity: the global state and,
// per direction, the copies sent after the sample point and not yet
// delivered in the extension — the only ones Definition 2 lets the
// extension deliver. Such a multiset is exactly the content of a reorder
// half, so it is kept as one in the system's half table.
type recNode struct {
	st    sim.State
	fresh [2]int32 // by direction: SToR, RToS
}

func (n recNode) Hash() uint64 { return n.st.Hash() + uint64(n.fresh[0])<<32 + uint64(n.fresh[1]) }

// recoverySearch BFS-es extensions of the point until R writes another
// item, returning the number of steps or -1 if Budget/MaxStates exhaust.
// Extension moves are ticks always, and deliveries (duplicating FIFO ones
// included) of any message under the weak variant but only of messages
// with fresh copies under Definition 2; drops never help recovery and are
// left out.
func recoverySearch(sys *sim.System, point *sim.World, cfg BoundedConfig) (int, error) {
	g := sim.NewGraph[recNode, recNode, struct{}](cfg.MaxStates)
	defer flush(newEngineMetrics(cfg.Obs, "recovery", false), g)
	input, tape := point.Input, point.Tape()
	none := sys.InternHalf(channel.NewReorder())
	root := recNode{st: sys.Intern(point), fresh: [2]int32{none, none}}
	g.Admit(root, root, -1, struct{}{})

	steps := -1
	var moves []sim.Move
	err := g.Levels(cfg.Budget, func(i int32) (bool, error) {
		cur := g.Nodes[i]
		moves = sys.Moves(moves[:0], cur.st)
		for _, mv := range moves {
			delivery := mv.Kind == trace.ActDeliver || mv.Kind == trace.ActDeliverDup
			if mv.Kind == trace.ActDrop || (delivery && !cfg.OldMessagesAllowed && !sys.HalfHolds(cur.fresh[mv.Dir-channel.SToR], mv.Msg)) {
				continue
			}
			step, err := sys.Step(cur.st, mv)
			if err != nil {
				return false, fmt.Errorf("mc: recovery: applying %s: %w", sys.Action(mv), err)
			}
			if len(step.Writes) > 0 {
				// A "recovery" that breaks safety does not count.
				if !tape.Write(input, step.Writes).Violated {
					steps = g.Level
					return true, nil
				}
				continue
			}
			child := recNode{st: step.Next, fresh: cur.fresh}
			for _, m := range step.Sends {
				out := &child.fresh[step.SendDir-channel.SToR]
				*out = sys.HalfSend(*out, m)
			}
			if mv.Kind == trace.ActDeliver && !cfg.OldMessagesAllowed {
				in := &child.fresh[mv.Dir-channel.SToR]
				*in, _ = sys.HalfDeliver(*in, mv.Msg) // held: checked above
			}
			g.Admit(child, child, i, struct{}{})
		}
		return false, nil
	})
	return steps, err
}
