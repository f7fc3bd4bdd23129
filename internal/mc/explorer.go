// Package mc model-checks STP systems. It makes the paper's proof
// technique executable:
//
//   - Explore: exhaustive bounded BFS over the runs of one (protocol,
//     input, channel) system — every resolution of the environment's
//     nondeterminism (Property 1b) up to a depth — checking safety in
//     every reachable state.
//   - Refute: the product construction behind Lemmas 1–4. Two runs with
//     different inputs are explored in lockstep so that the receiver's
//     complete-history views stay equal ("R cannot tell apart", §2.2);
//     because protocols are deterministic, equal views mean equal
//     receiver states and equal outputs, so reaching a point where the
//     shared output is incompatible with one input is a safety violation
//     for that run. This is exactly how the paper derives Theorems 1 and
//     2 from dup-/del-decisive tuples.
//   - CheckBounded / CheckWeaklyBounded: Definition 2 and the §5 weak
//     variant, as reachability searches over extensions.
//   - SearchProtocols: exhaustive enumeration of small finite-state
//     protocols, verifying the universal impossibility statement on a
//     finite slice.
package mc

import (
	"cmp"
	"fmt"
	"strings"

	"seqtx/internal/channel"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
)

// ExploreResult reports an exhaustive bounded exploration.
type ExploreResult struct {
	// States is the number of distinct states visited.
	States int
	// Depth is the deepest BFS level at which a new state was admitted
	// (the root is level 0). It is not the deepest level expanded: under
	// MaxDepth = d a state can be admitted at level d and never expanded.
	Depth int
	// Truncated reports whether the state or depth cap stopped expansion
	// before the frontier emptied (if false, the exploration is complete:
	// the system has finitely many reachable states and all were checked).
	Truncated bool
	// Violation is the first safety violation found, with a witness.
	Violation *Witness
	// CompletedState reports whether some reachable state has Y = X.
	CompletedState bool
}

// Witness is a counterexample: the actions leading to a bad state.
type Witness struct {
	Input   seq.Seq
	Actions []trace.Action
	Output  seq.Seq
	Err     error
}

// String renders the witness run.
func (w *Witness) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "input %s, output %s: %v\n", w.Input, w.Output, w.Err)
	for i, a := range w.Actions {
		fmt.Fprintf(&b, "  %3d. %s\n", i+1, a)
	}
	return b.String()
}

// ExploreConfig bounds an exploration.
type ExploreConfig struct {
	// MaxDepth bounds the BFS depth (levels of actions). Required > 0.
	MaxDepth int
	// MaxStates caps the visited-state count (0 = 1<<20).
	MaxStates int
	// EngineConfig selects the worker count (see its doc; results are
	// identical for every setting).
	EngineConfig
}

func (c *ExploreConfig) normalize() error {
	if c.MaxDepth <= 0 {
		return fmt.Errorf("mc: MaxDepth must be positive, got %d", c.MaxDepth)
	}
	if c.MaxStates == 0 {
		c.MaxStates = 1 << 20
	}
	return nil
}

// exploreKey is a state's identity in Explore: its components and |Y|.
// The violation flag is not part of it — of two arrivals that differ only
// there, the first wins.
type exploreKey struct {
	st   sim.State
	ylen int32
}

type exploreNode struct {
	st   sim.State
	tape sim.Tape
}

func (n exploreNode) key() exploreKey { return exploreKey{n.st, n.tape.Len} }

// exploreCand is one expanded transition awaiting the in-order merge.
type exploreCand struct {
	exploreNode
	link
}

// Explore runs exhaustive BFS from the initial state of (spec, input,
// kind), checking the safety property in every state. States are kept by
// identity in a tabulated system (sim.System); levels are expanded across
// cfg.Workers goroutines and merged deterministically, so the result is
// identical for every worker count (Workers == 1 runs in-line).
func Explore(spec protocol.Spec, input seq.Seq, kind channel.Kind, cfg ExploreConfig) (*ExploreResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	chLink, err := channel.NewLinkOfKind(kind)
	if err != nil {
		return nil, err
	}
	w, err := sim.New(spec, input, chLink)
	if err != nil {
		return nil, err
	}
	sys := sim.NewSystem(w)
	res := &ExploreResult{States: 1}
	workers := cfg.workerCount()
	scratch := newScratch(sys, workers)
	em := newEngineMetrics(cfg.Obs, "explore", workers, true)
	defer em.flush()
	em.noteMerge(true) // the root state

	// nodes holds every admitted state in admission order, so a BFS level
	// is a contiguous run of it; links is its shortest-path forest.
	nodes := []exploreNode{{st: sys.Intern(w), tape: sim.TapeOf(w)}}
	links := []link{{parent: -1}}
	seen := map[exploreKey]struct{}{nodes[0].key(): {}}
	var bufs [][]exploreCand // per-worker staged candidates, reused across levels
	var failed error
	depth := 0

	// merge admits one candidate, replicating the sequential child
	// processing exactly: violation and completion checks come before
	// dedup, dedup before the state cap, and a capped-out NEW child sets
	// Truncated without being inserted.
	merge := func(c exploreCand) bool {
		if c.tape.Violated && res.Violation == nil {
			acts := append(path(scratch[0].r, links, c.parent), scratch[0].r.Action(c.mv))
			bad, err := replay(w, acts)
			if err != nil {
				failed = err // the tables and World.Apply disagree
				return false
			}
			res.Violation = &Witness{Input: input.Clone(), Actions: acts, Output: bad.Output, Err: bad.SafetyViolation}
		}
		if c.tape.Complete(input) {
			res.CompletedState = true
		}
		if _, dup := seen[c.key()]; dup {
			em.noteMerge(false)
			return true
		}
		if res.States >= cfg.MaxStates {
			res.Truncated = true
			return true
		}
		em.noteMerge(true)
		seen[c.key()] = struct{}{}
		res.States++
		res.Depth = depth + 1
		nodes = append(nodes, c.exploreNode)
		links = append(links, c.link)
		return true
	}

	for lo := 0; lo < len(nodes); depth++ {
		if depth >= cfg.MaxDepth {
			res.Truncated = true
			break
		}
		level := nodes[lo:]
		err := runLevel(workers, len(level), &bufs, func(worker, i int, emit func(exploreCand) bool) error {
			em.noteExpand(worker)
			ws, cur := &scratch[worker], level[i]
			ws.moves = ws.r.Moves(ws.moves[:0], cur.st)
			for _, mv := range ws.moves {
				step, err := ws.r.Step(cur.st, mv)
				if err != nil {
					return fmt.Errorf("mc: applying %s: %w", ws.r.Action(mv), err)
				}
				child := exploreNode{st: step.Next, tape: cur.tape.Write(input, step.Writes)}
				// Five successors in six are of states already visited. The
				// visited set only grows, so one seen here is still one at
				// the merge, which would only count it — unless it breaks
				// safety or completes, which the merge looks at first.
				if _, dup := seen[child.key()]; dup && !child.tape.Violated && !child.tape.Complete(input) {
					em.noteDup(worker)
					continue
				}
				if !emit(exploreCand{child, link{int32(lo + i), mv}}) {
					break
				}
			}
			return nil
		}, merge)
		if err = cmp.Or(err, failed); err != nil {
			return nil, err
		}
		em.noteLevel(depth, len(level))
		lo += len(level)
	}
	return res, nil
}
