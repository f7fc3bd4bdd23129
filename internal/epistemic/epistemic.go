// Package epistemic implements the paper's knowledge machinery (§2.3):
// indistinguishability of points under the complete history
// interpretation, the knowledge operator K_R, and the learning times t_i
// — "the first time in r where R knows the values of the first i data
// elements".
//
// Knowledge is computed relative to an explored set of runs, obtained by
// exhaustively expanding every environment choice (Property 1b) up to a
// depth, across a set of candidate inputs. R's complete-history local
// state is its view — the chronological list of its own events — so two
// points are ~_R-indistinguishable exactly when their views are equal,
// and
//
//	(R, r, t) |= K_R(x_i = d)
//
// holds iff every explored point with the same view has x_i = d.
//
// Caveat (inherent to finite exploration): the explored set
// under-approximates the full run set, so "does not know" verdicts are
// sound (a confusion exhibited within the explored runs exists in the
// full system a fortiori), while "knows" verdicts are relative to the
// exploration depth. The tests choose assertions accordingly.
package epistemic

import (
	"fmt"

	"seqtx/internal/channel"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
)

// Analysis indexes, for every receiver view reached in the exploration,
// the set of inputs whose runs can produce that view.
type Analysis struct {
	classes map[string]map[string]seq.Seq // view key -> input key -> input
	views   map[string]trace.View         // view key -> the view itself
	// Truncated reports whether any exploration hit its bounds.
	Truncated bool
	// States is the total number of (world, view) nodes visited.
	States int
}

// Config bounds the exploration.
type Config struct {
	// Depth is the BFS depth per input (required > 0).
	Depth int
	// MaxStates caps the per-input node count (0 = 1<<19).
	MaxStates int
}

// Analyze explores every run (all environment choices) of spec on each
// candidate input over the channel kind, up to the configured depth, and
// returns the view-class index.
func Analyze(spec protocol.Spec, inputs []seq.Seq, kind channel.Kind, cfg Config) (*Analysis, error) {
	if cfg.Depth <= 0 {
		return nil, fmt.Errorf("epistemic: Depth must be positive, got %d", cfg.Depth)
	}
	if cfg.MaxStates == 0 {
		cfg.MaxStates = 1 << 19
	}
	a := &Analysis{
		classes: make(map[string]map[string]seq.Seq),
		views:   make(map[string]trace.View),
	}
	for _, x := range inputs {
		if err := a.explore(spec, x, kind, cfg); err != nil {
			return nil, err
		}
	}
	return a, nil
}

type epiNode struct {
	w     *sim.World
	view  trace.View
	depth int
}

func (a *Analysis) explore(spec protocol.Spec, input seq.Seq, kind channel.Kind, cfg Config) error {
	link, err := channel.NewLinkOfKind(kind)
	if err != nil {
		return err
	}
	w, err := sim.New(spec, input, link)
	if err != nil {
		return err
	}
	start := &epiNode{w: w}
	a.record(start.view, input)
	seen := map[string]struct{}{w.Key() + "#" + start.view.Key(): {}}
	frontier := []*epiNode{start}
	states := 1
	a.States++
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		if cur.depth >= cfg.Depth {
			a.Truncated = true
			continue
		}
		for _, act := range cur.w.Enabled() {
			next, aerr := cur.w.Successor(act)
			if aerr != nil {
				return fmt.Errorf("epistemic: applying %s: %w", act, aerr)
			}
			view := cur.view
			switch {
			case act.Kind == trace.ActTickR:
				view = append(view.CloneView(), trace.ViewEvent{IsTick: true})
			case (act.Kind == trace.ActDeliver || act.Kind == trace.ActDeliverDup) && act.Dir == channel.SToR:
				view = append(view.CloneView(), trace.ViewEvent{Msg: act.Msg})
			}
			if len(view) != len(cur.view) {
				a.record(view, input)
			}
			key := next.Key() + "#" + view.Key()
			if _, ok := seen[key]; ok {
				continue
			}
			if states >= cfg.MaxStates {
				a.Truncated = true
				continue
			}
			seen[key] = struct{}{}
			states++
			a.States++
			frontier = append(frontier, &epiNode{w: next, view: view, depth: cur.depth + 1})
		}
	}
	return nil
}

func (a *Analysis) record(v trace.View, input seq.Seq) {
	k := v.Key()
	cls, ok := a.classes[k]
	if !ok {
		cls = make(map[string]seq.Seq)
		a.classes[k] = cls
		a.views[k] = v.CloneView()
	}
	cls[input.Key()] = input.Clone()
}

// Reached reports whether the view was reached in the exploration.
func (a *Analysis) Reached(v trace.View) bool {
	_, ok := a.classes[v.Key()]
	return ok
}

// ClassSize returns the number of distinct inputs that can produce v.
func (a *Analysis) ClassSize(v trace.View) int { return len(a.classes[v.Key()]) }

// Knows evaluates K_R(x_i) at any point with view v (i is 1-based, the
// paper's convention): it returns the value d with K_R(x_i = d) and true,
// or false when no such d exists — either because two indistinguishable
// inputs disagree on x_i, or because some indistinguishable input is too
// short to have an x_i. It errors if the view was never reached.
func (a *Analysis) Knows(v trace.View, i int) (seq.Item, bool, error) {
	cls, ok := a.classes[v.Key()]
	if !ok {
		return 0, false, fmt.Errorf("epistemic: view %q not reached in the exploration", v.Key())
	}
	if i < 1 {
		return 0, false, fmt.Errorf("epistemic: item index %d < 1", i)
	}
	var (
		val   seq.Item
		first = true
	)
	for _, x := range cls {
		if i > len(x) {
			return 0, false, nil // some indistinguishable run has no x_i
		}
		if first {
			val = x[i-1]
			first = false
			continue
		}
		if x[i-1] != val {
			return 0, false, nil
		}
	}
	if first {
		return 0, false, fmt.Errorf("epistemic: empty class for view %q", v.Key())
	}
	return val, true, nil
}

// CheckStability verifies the paper's observation that K_R(x_i) is stable
// under the complete history interpretation: whenever a view v knows x_i,
// every reached extension of v knows it with the same value. It returns
// the first violation found, or nil. Stability is checked for items
// 1..maxItem over all recorded views.
func (a *Analysis) CheckStability(maxItem int) error {
	for key, v := range a.views {
		if len(v) == 0 {
			continue
		}
		parent := v[:len(v)-1]
		if !a.Reached(parent) {
			// The exploration records every prefix of a recorded view (it
			// extends views one event at a time), so this cannot happen.
			return fmt.Errorf("epistemic: view %q reached but its prefix was not", key)
		}
		for i := 1; i <= maxItem; i++ {
			pv, pknows, err := a.Knows(parent, i)
			if err != nil {
				return err
			}
			if !pknows {
				continue
			}
			cv, cknows, err := a.Knows(v, i)
			if err != nil {
				return err
			}
			if !cknows || cv != pv {
				return fmt.Errorf(
					"epistemic: stability violated: view %q knows x_%d = %d but extension %q does not",
					parent.Key(), i, int(pv), key)
			}
		}
	}
	return nil
}

// LearnTimes drives a single run of spec on input with the adversary and
// returns, for each i, the paper's t_i relative to this analysis: the
// first step at which R's view knows x_1 .. x_i. Entries are -1 when the
// run ends (maxSteps) before R learns item i. The analysis must have been
// built with the same spec and channel kind, and with an input set
// containing this input.
func LearnTimes(a *Analysis, spec protocol.Spec, input seq.Seq, kind channel.Kind, adv sim.Adversary, maxSteps int) ([]int, error) {
	link, err := channel.NewLinkOfKind(kind)
	if err != nil {
		return nil, err
	}
	w, err := sim.New(spec, input, link)
	if err != nil {
		return nil, err
	}
	w.StartTrace()
	times := make([]int, len(input))
	for i := range times {
		times[i] = -1
	}
	learned := 0
	checkNow := func(t int) error {
		view := w.Trace.ReceiverView(-1)
		if !a.Reached(view) {
			// Beyond the exploration depth: stop attributing knowledge.
			return nil
		}
		for learned < len(input) {
			_, knows, kerr := a.Knows(view, learned+1)
			if kerr != nil {
				return kerr
			}
			if !knows {
				break
			}
			times[learned] = t
			learned++
		}
		return nil
	}
	if err := checkNow(0); err != nil {
		return nil, err
	}
	for step := 0; step < maxSteps && learned < len(input); step++ {
		if err := w.Apply(adv.Choose(w, w.Enabled())); err != nil {
			return nil, err
		}
		if err := checkNow(w.Time); err != nil {
			return nil, err
		}
	}
	return times, nil
}
