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
	"fmt"
	"strings"

	"seqtx/internal/channel"
	"seqtx/internal/obs"
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
	// Obs, when non-nil, receives engine metrics (states visited, dedup
	// hits and misses, frontier sizes, states/sec) and per-level BFS
	// events, flushed once per run; nil disables them for the cost of a
	// few branches.
	Obs *obs.Registry
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

// witness is the run from w along path, as sim.Accept plays it on a clone:
// a search keeps states by identity, so this is where a witness gets its
// tape, clock and violation text. The run ends at its first safety
// violation, as a run does; an error means the tables and World.Apply
// disagree.
func witness(sys *sim.System, w *sim.World, path []sim.Move) (*Witness, error) {
	acts := actions(sys, path)
	run, err := sim.Accept(w.Clone(), acts, sim.Config{})
	if err != nil {
		return nil, err
	}
	return &Witness{Input: w.Input.Clone(), Actions: acts[:run.Steps], Output: run.Output, Err: run.SafetyViolation}, nil
}

// exploreKey is a state's identity in Explore: its components and |Y|.
// The violation flag is not part of it — of two arrivals that differ only
// there, the first wins.
type exploreKey struct {
	st   sim.State
	ylen int32
}

func (k exploreKey) Hash() uint64 { return k.st.Hash() + uint64(k.ylen) }

type exploreNode struct {
	st   sim.State
	tape seq.Tape
}

func (n exploreNode) key() exploreKey { return exploreKey{n.st, n.tape.Len} }

// Explore runs exhaustive BFS from the initial state of (spec, input,
// kind), checking the safety property in every state. States are kept by
// identity in a tabulated system (sim.System) and expanded level by
// level, each node's moves in Moves order: a deterministic function of
// its arguments.
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
	return explore(sim.NewSystem(w), w, cfg)
}

// explore is Explore (cfg normalized) from w in sys, a system of w's spec
// and link that may already hold anything: a search compares ids and
// never orders them, so results do not depend on what was filed before.
func explore(sys *sim.System, w *sim.World, cfg ExploreConfig) (*ExploreResult, error) {
	input := w.Input
	res := &ExploreResult{}
	g := sim.NewGraph[exploreKey, exploreNode, sim.Move](cfg.MaxStates)
	defer flush(newEngineMetrics(cfg.Obs, "explore", true), g)
	root := exploreNode{st: sys.Intern(w), tape: w.Tape()}
	g.Admit(root.key(), root, -1, sim.Move{})

	var moves []sim.Move
	err := g.Levels(cfg.MaxDepth, func(i int32) (bool, error) {
		cur := g.Nodes[i]
		moves = sys.Moves(moves[:0], cur.st)
		for _, mv := range moves {
			step, err := sys.Step(cur.st, mv)
			if err != nil {
				return false, fmt.Errorf("mc: applying %s: %w", sys.Action(mv), err)
			}
			// Violation and completion checks come before dedup: the
			// violation flag is not part of a state's identity.
			child := exploreNode{st: step.Next, tape: cur.tape.Write(input, step.Writes)}
			if child.tape.Violated && res.Violation == nil {
				if res.Violation, err = witness(sys, w, append(g.Path(i), mv)); err != nil {
					return false, err
				}
			}
			if child.tape.Complete(input) {
				res.CompletedState = true
			}
			g.Admit(child.key(), child, i, mv)
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	res.States, res.Depth, res.Truncated = len(g.Nodes), g.Depth, g.Cut
	return res, nil
}
