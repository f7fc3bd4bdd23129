package mc

import (
	"errors"
	"fmt"

	"seqtx/internal/channel"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
)

// ProgressResult reports a liveness-structure analysis: which reachable
// states still have SOME path to completion (the existential half of
// F-liveness — Property 2 guarantees a fair extension exists exactly when
// some extension completes), and which are doomed: reachable states from
// which no schedule whatsoever can complete the transmission. A protocol
// with doomed states cannot be live under ANY fairness notion, because
// fairness only selects among extensions that exist.
type ProgressResult struct {
	// States is the number of distinct reachable states explored.
	States int
	// Completed is the number of states with Y = X.
	Completed int
	// Doomed is the number of reachable states from which no completion
	// is reachable (within the explored, possibly truncated, graph).
	Doomed int
	// Truncated reports whether bounds cut the exploration; when true,
	// "doomed" is an over-approximation (a deeper path might recover) and
	// should be read as "cannot complete within the horizon".
	Truncated bool
	// DoomedWitness reaches one doomed state, if any: the shortest path to
	// the first doomed node, cut at its first safety violation.
	DoomedWitness *Witness
}

// CheckProgress explores the reachable state graph of (spec, input, kind)
// to the given bounds and back-propagates completion-reachability.
func CheckProgress(spec protocol.Spec, input seq.Seq, kind channel.Kind, cfg ExploreConfig) (*ProgressResult, error) {
	link, err := channel.NewLinkOfKind(kind)
	if err != nil {
		return nil, err
	}
	w, err := sim.New(spec, input, link)
	if err != nil {
		return nil, err
	}
	return CheckProgressFrom(w, cfg)
}

// CheckProgressFrom runs the analysis from an arbitrary starting state —
// e.g. a world driven into a suspected deadlock — instead of the initial
// one. The world is not modified (exploration clones it).
func CheckProgressFrom(w *sim.World, cfg ExploreConfig) (*ProgressResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	return progress(sim.NewSystem(w), w, cfg)
}

// progress is CheckProgressFrom (cfg normalized) in sys (see explore).
func progress(sys *sim.System, w *sim.World, cfg ExploreConfig) (*ProgressResult, error) {
	input := w.Input
	g := sim.NewGraph[exploreKey, exploreNode, sim.Move](cfg.MaxStates)
	defer flush(newEngineMetrics(cfg.Obs, "progress", true), g)
	root := exploreNode{st: sys.Intern(w), tape: w.Tape()}
	g.Admit(root.key(), root, -1, sim.Move{})

	// The reachable graph: the graph's nodes and shortest paths, and an
	// edge for every transition into it.
	var edges []edge
	var moves []sim.Move
	err := g.Levels(cfg.MaxDepth, func(i int32) (bool, error) {
		n := g.Nodes[i]
		moves = sys.Moves(moves[:0], n.st)
		for _, mv := range moves {
			step, err := sys.Step(n.st, mv)
			if err != nil {
				return false, fmt.Errorf("mc: applying %s: %w", sys.Action(mv), err)
			}
			child := exploreNode{st: step.Next, tape: n.tape.Write(input, step.Writes)}
			if id, _ := g.Admit(child.key(), child, i, mv); id >= 0 {
				edges = append(edges, edge{from: i, to: id})
			}
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	res := &ProgressResult{States: len(g.Nodes), Truncated: g.Cut}

	// Back-propagate completion-reachability.
	canComplete := make([]bool, len(g.Nodes))
	for i, n := range g.Nodes {
		if n.tape.Complete(input) {
			res.Completed++
			canComplete[i] = true
		}
	}
	coreach(canComplete, edges)
	for i := range g.Nodes {
		if canComplete[i] {
			continue
		}
		res.Doomed++
		if res.DoomedWitness == nil {
			// A path that breaks safety ends there; Err keeps both verdicts.
			wit, err := witness(sys, w, g.Path(int32(i)))
			if err != nil {
				return nil, err
			}
			wit.Err = errors.Join(fmt.Errorf("mc: no completion reachable from this state (horizon %d)", cfg.MaxDepth), wit.Err)
			res.DoomedWitness = wit
		}
	}
	return res, nil
}
