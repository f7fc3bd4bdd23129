package mc

import (
	"fmt"

	"seqtx/internal/channel"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
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
	// DoomedWitness reaches one doomed state, if any.
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
	input := w.Input

	type gnode struct {
		id       int
		parents  []int
		complete bool
		path     []trace.Action // one shortest path from the root
	}
	res := &ProgressResult{}
	nodes := []*gnode{{id: 0, complete: w.OutputComplete()}}
	index := map[string]int{w.Key(): 0}
	worlds := []*sim.World{w}
	depths := []int{0}
	frontier := []int{0}
	for head := 0; head < len(frontier); head++ {
		cur := frontier[head]
		if depths[cur] >= cfg.MaxDepth {
			res.Truncated = true
			continue
		}
		for _, act := range worlds[cur].Enabled() {
			next, aerr := worlds[cur].Successor(act)
			if aerr != nil {
				return nil, fmt.Errorf("mc: applying %s: %w", act, aerr)
			}
			key := next.Key()
			if id, ok := index[key]; ok {
				nodes[id].parents = append(nodes[id].parents, cur)
				continue
			}
			if len(nodes) >= cfg.MaxStates {
				res.Truncated = true
				continue
			}
			id := len(nodes)
			index[key] = id
			path := append(append([]trace.Action{}, nodes[cur].path...), act)
			nodes = append(nodes, &gnode{id: id, parents: []int{cur}, complete: next.OutputComplete(), path: path})
			worlds = append(worlds, next)
			depths = append(depths, depths[cur]+1)
			frontier = append(frontier, id)
		}
	}
	res.States = len(nodes)

	// Back-propagate completion-reachability.
	canComplete := make([]bool, len(nodes))
	var queue []int
	for _, n := range nodes {
		if n.complete {
			res.Completed++
			canComplete[n.id] = true
			queue = append(queue, n.id)
		}
	}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, p := range nodes[cur].parents {
			if !canComplete[p] {
				canComplete[p] = true
				queue = append(queue, p)
			}
		}
	}
	for _, n := range nodes {
		if canComplete[n.id] {
			continue
		}
		res.Doomed++
		if res.DoomedWitness == nil {
			res.DoomedWitness = &Witness{
				Input:   input.Clone(),
				Actions: n.path,
				Output:  worlds[n.id].Output.Clone(),
				Err:     fmt.Errorf("mc: no completion reachable from this state (horizon %d)", cfg.MaxDepth),
			}
		}
	}
	return res, nil
}
