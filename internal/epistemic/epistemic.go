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
	"slices"

	"seqtx/internal/channel"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
)

// Analysis indexes, for every receiver view reached in the exploration,
// the set of inputs whose runs can produce that view. Views are kept as a
// trie — a view is its parent plus one event — so a point of the
// exploration names its view by a node id.
type Analysis struct {
	views    []viewNode         // by id; 0 is the empty view
	children map[viewEdge]int32 // (view, next event) -> extended view
	// Truncated reports whether any exploration hit its bounds.
	Truncated bool
	// States is the total number of (world, view) nodes visited.
	States int
}

type viewNode struct {
	parent int32
	ev     trace.ViewEvent    // the view's last event
	inputs map[string]seq.Seq // input key -> input, for the runs that reach it
}

type viewEdge struct {
	parent int32
	ev     trace.ViewEvent
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
		views:    []viewNode{{parent: -1, inputs: make(map[string]seq.Seq)}},
		children: make(map[viewEdge]int32),
	}
	// One tabulated system serves every input: the runs differ in their
	// senders only, and R must not be able to tell.
	var sys *sim.System
	for _, x := range inputs {
		link, err := channel.NewLinkOfKind(kind)
		if err != nil {
			return nil, err
		}
		w, err := sim.New(spec, x, link)
		if err != nil {
			return nil, err
		}
		if sys == nil {
			sys = sim.NewSystem(w)
		}
		if err := a.explore(sys, sys.Intern(w), w.Input, cfg); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// epiNode is a point by identity: the global state, |Y| and R's view.
type epiNode struct {
	st   sim.State
	ylen int32
	view int32
}

func (n epiNode) Hash() uint64 { return n.st.Hash() + uint64(n.ylen)<<32 + uint64(n.view) }

func (a *Analysis) explore(sys *sim.System, root sim.State, input seq.Seq, cfg Config) error {
	a.views[0].inputs[input.Key()] = input.Clone()
	g := sim.NewGraph[epiNode, epiNode, struct{}](cfg.MaxStates)
	g.Admit(epiNode{st: root}, epiNode{st: root}, -1, struct{}{})
	var moves []sim.Move
	err := g.Levels(cfg.Depth, func(i int32) (bool, error) {
		cur := g.Nodes[i]
		moves = sys.Moves(moves[:0], cur.st)
		for _, mv := range moves {
			step, err := sys.Step(cur.st, mv)
			if err != nil {
				return false, fmt.Errorf("epistemic: applying %s: %w", sys.Action(mv), err)
			}
			next := epiNode{st: step.Next, ylen: cur.ylen + int32(len(step.Writes)), view: cur.view}
			switch {
			case mv.Kind == trace.ActTickR:
				next.view = a.extend(cur.view, trace.ViewEvent{IsTick: true}, input)
			case (mv.Kind == trace.ActDeliver || mv.Kind == trace.ActDeliverDup) && mv.Dir == channel.SToR:
				next.view = a.extend(cur.view, trace.ViewEvent{Msg: sys.Action(mv).Msg}, input)
			}
			g.Admit(next, next, i, struct{}{})
		}
		return false, nil
	})
	a.States += len(g.Nodes)
	a.Truncated = a.Truncated || g.Cut
	return err
}

// extend returns the view one event past parent, recording that a run on
// input reaches it.
func (a *Analysis) extend(parent int32, ev trace.ViewEvent, input seq.Seq) int32 {
	id, ok := a.children[viewEdge{parent, ev}]
	if !ok {
		id = int32(len(a.views))
		a.children[viewEdge{parent, ev}] = id
		a.views = append(a.views, viewNode{parent: parent, ev: ev, inputs: make(map[string]seq.Seq)})
	}
	if k := input.Key(); a.views[id].inputs[k] == nil {
		a.views[id].inputs[k] = input.Clone()
	}
	return id
}

// view spells out view id.
func (a *Analysis) view(id int32) trace.View {
	var v trace.View
	for ; id > 0; id = a.views[id].parent {
		v = append(v, a.views[id].ev)
	}
	slices.Reverse(v)
	return v
}

// find walks v down the trie.
func (a *Analysis) find(v trace.View) (int32, bool) {
	id := int32(0)
	for _, ev := range v {
		if ev.IsTick {
			ev.Msg = ""
		}
		next, ok := a.children[viewEdge{id, ev}]
		if !ok {
			return 0, false
		}
		id = next
	}
	return id, true
}

// Reached reports whether the view was reached in the exploration.
func (a *Analysis) Reached(v trace.View) bool {
	_, ok := a.find(v)
	return ok
}

// ClassSize returns the number of distinct inputs that can produce v.
func (a *Analysis) ClassSize(v trace.View) int {
	id, ok := a.find(v)
	if !ok {
		return 0
	}
	return len(a.views[id].inputs)
}

// Knows evaluates K_R(x_i) at any point with view v (i is 1-based, the
// paper's convention): it returns the value d with K_R(x_i = d) and true,
// or false when no such d exists — either because two indistinguishable
// inputs disagree on x_i, or because some indistinguishable input is too
// short to have an x_i. It errors if the view was never reached.
func (a *Analysis) Knows(v trace.View, i int) (seq.Item, bool, error) {
	id, ok := a.find(v)
	if !ok {
		return 0, false, fmt.Errorf("epistemic: view %q not reached in the exploration", v.Key())
	}
	if i < 1 {
		return 0, false, fmt.Errorf("epistemic: item index %d < 1", i)
	}
	val, knows := a.knows(id, i)
	return val, knows, nil
}

// knows is Knows on a reached view and a valid index.
func (a *Analysis) knows(id int32, i int) (seq.Item, bool) {
	var (
		val   seq.Item
		first = true
	)
	for _, x := range a.views[id].inputs {
		if i > len(x) {
			return 0, false // some indistinguishable run has no x_i
		}
		if first {
			val = x[i-1]
			first = false
			continue
		}
		if x[i-1] != val {
			return 0, false
		}
	}
	return val, true
}

// CheckStability verifies the paper's observation that K_R(x_i) is stable
// under the complete history interpretation: whenever a view v knows x_i,
// every reached extension of v knows it with the same value. It returns
// the first violation found, or nil. Stability is checked for items
// 1..maxItem over all recorded views (every prefix of a recorded view is
// recorded: the trie grows one event at a time).
func (a *Analysis) CheckStability(maxItem int) error {
	for id := int32(1); int(id) < len(a.views); id++ {
		parent := a.views[id].parent
		for i := 1; i <= maxItem; i++ {
			pv, pknows := a.knows(parent, i)
			if !pknows {
				continue
			}
			if cv, cknows := a.knows(id, i); !cknows || cv != pv {
				return fmt.Errorf(
					"epistemic: stability violated: view %q knows x_%d = %d but extension %q does not",
					a.view(parent).Key(), i, int(pv), a.view(id).Key())
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
	var enabled []trace.Action
	for step := 0; step < maxSteps && learned < len(input); step++ {
		enabled = w.AppendEnabled(enabled[:0])
		if err := w.Apply(adv.Choose(w, enabled)); err != nil {
			return nil, err
		}
		if err := checkNow(w.Time); err != nil {
			return nil, err
		}
	}
	return times, nil
}
