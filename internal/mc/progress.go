package mc

import (
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
	sys := sim.NewSystem(w)

	// The reachable graph, nodes in BFS order: identity and tape, the
	// discovery link (one shortest path from the root), every parent, and
	// the BFS depth.
	res := &ProgressResult{}
	nodes := []exploreNode{{st: sys.Intern(w), tape: sim.TapeOf(w)}}
	links := []link{{parent: -1}}
	parents := [][]int32{nil}
	depths := []int{0}
	index := map[exploreKey]int32{nodes[0].key(): 0}
	var moves []sim.Move
	for cur := int32(0); int(cur) < len(nodes); cur++ {
		if depths[cur] >= cfg.MaxDepth {
			res.Truncated = true
			continue
		}
		n := nodes[cur]
		moves = sys.Moves(moves[:0], n.st)
		for _, mv := range moves {
			step, err := sys.Step(n.st, mv)
			if err != nil {
				return nil, fmt.Errorf("mc: applying %s: %w", sys.Action(mv), err)
			}
			child := exploreNode{st: step.Next, tape: n.tape.Write(input, step.Writes)}
			if id, ok := index[child.key()]; ok {
				parents[id] = append(parents[id], cur)
				continue
			}
			if len(nodes) >= cfg.MaxStates {
				res.Truncated = true
				continue
			}
			index[child.key()] = int32(len(nodes))
			nodes = append(nodes, child)
			links = append(links, link{cur, mv})
			parents = append(parents, []int32{cur})
			depths = append(depths, depths[cur]+1)
		}
	}
	res.States = len(nodes)

	// Back-propagate completion-reachability.
	canComplete := make([]bool, len(nodes))
	var queue []int32
	for i, n := range nodes {
		if n.tape.Complete(input) {
			res.Completed++
			canComplete[i] = true
			queue = append(queue, int32(i))
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, p := range parents[queue[head]] {
			if !canComplete[p] {
				canComplete[p] = true
				queue = append(queue, p)
			}
		}
	}
	for i := range nodes {
		if canComplete[i] {
			continue
		}
		res.Doomed++
		if res.DoomedWitness == nil {
			acts := path(sys, links, int32(i))
			doomed, err := replay(w, acts)
			if err != nil {
				return nil, err
			}
			res.DoomedWitness = &Witness{
				Input:   input.Clone(),
				Actions: acts,
				Output:  doomed.Output,
				Err:     fmt.Errorf("mc: no completion reachable from this state (horizon %d)", cfg.MaxDepth),
			}
		}
	}
	return res, nil
}
