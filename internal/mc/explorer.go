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
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
)

// ExploreResult reports an exhaustive bounded exploration.
type ExploreResult struct {
	// States is the number of distinct states visited.
	States int
	// Depth is the deepest level fully expanded.
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

type node struct {
	w      *sim.World
	parent *node
	act    trace.Action
	depth  int
}

func (n *node) path() []trace.Action {
	var acts []trace.Action
	for cur := n; cur.parent != nil; cur = cur.parent {
		acts = append(acts, cur.act)
	}
	for i, j := 0, len(acts)-1; i < j; i, j = i+1, j-1 {
		acts[i], acts[j] = acts[j], acts[i]
	}
	return acts
}

// exploreCand is one expanded transition awaiting the in-order merge.
type exploreCand struct {
	child *node
	key   []byte // canonical binary key; stable until the merge
	hash  uint64
	err   error
}

// Explore runs exhaustive BFS from the initial state of (spec, input,
// kind), checking the safety property in every state. Levels are expanded
// across cfg.Workers goroutines and merged deterministically; the result
// is identical for every worker count (Workers == 1 runs in-line).
func Explore(spec protocol.Spec, input seq.Seq, kind channel.Kind, cfg ExploreConfig) (*ExploreResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	link, err := channel.NewLinkOfKind(kind)
	if err != nil {
		return nil, err
	}
	w, err := sim.New(spec, input, link)
	if err != nil {
		return nil, err
	}
	res := &ExploreResult{States: 1}
	workers := cfg.workerCount()
	scratch := newScratch(workers)
	em := newEngineMetrics(cfg.Obs, "explore", workers, true)
	em.noteMerge(true) // the root state
	idx := newStateIndex()
	rootKey := w.EncodeKey(scratch[0].keyBuf)
	idx.insert(hashBytes(rootKey), stableCopy(rootKey))

	frontier := []*node{{w: w}}
	depth := 0
	var next []*node
	var bufs [][]exploreCand // per-chunk candidates, reused across levels

	// merge admits one candidate, replicating the sequential child
	// processing exactly: violation and completion checks come before
	// dedup, dedup before the state cap, and a capped-out NEW child sets
	// Truncated without being inserted.
	merge := func(c exploreCand) error {
		if c.err != nil {
			return c.err
		}
		cw := c.child.w
		if cw.SafetyViolation != nil && res.Violation == nil {
			res.Violation = &Witness{
				Input:   input.Clone(),
				Actions: c.child.path(),
				Output:  cw.Output.Clone(),
				Err:     cw.SafetyViolation,
			}
		}
		if cw.OutputComplete() {
			res.CompletedState = true
		}
		if idx.contains(c.hash, c.key) {
			em.noteMerge(false)
			return nil
		}
		if res.States >= cfg.MaxStates {
			res.Truncated = true
			return nil
		}
		em.noteMerge(true)
		idx.insert(c.hash, stableCopy(c.key))
		res.States++
		if c.child.depth > res.Depth {
			res.Depth = c.child.depth
		}
		next = append(next, c.child)
		return nil
	}

	// expand produces the candidates of one frontier node in action order.
	expand := func(ws *workerScratch, cur *node, emit func(exploreCand) error) error {
		ws.acts = cur.w.AppendEnabled(ws.acts[:0])
		for _, act := range ws.acts {
			nw, aerr := cur.w.Successor(act)
			if aerr != nil {
				return emit(exploreCand{err: fmt.Errorf("mc: applying %s: %w", act, aerr)})
			}
			ws.keyBuf = nw.EncodeKey(ws.keyBuf[:0])
			if err := emit(exploreCand{
				child: &node{w: nw, parent: cur, act: act, depth: cur.depth + 1},
				key:   ws.keyBuf,
				hash:  hashBytes(ws.keyBuf),
			}); err != nil {
				return err
			}
		}
		return nil
	}

	for len(frontier) > 0 {
		if depth >= cfg.MaxDepth {
			res.Truncated = true
			break
		}
		next = next[:0]
		if workers == 1 {
			// Sequential path: candidates are merged as they are produced,
			// so keys never need a stable staging copy.
			for _, cur := range frontier {
				em.noteExpand(0)
				if err := expand(&scratch[0], cur, merge); err != nil {
					return nil, err
				}
			}
		} else {
			bounds := chunkBounds(len(frontier), workers*chunksPerWorker)
			results := candBufs(&bufs, len(bounds))
			runChunks(workers, bounds, func(worker, chunk int) {
				ws := &scratch[worker]
				out := results[chunk]
				for _, cur := range frontier[bounds[chunk][0]:bounds[chunk][1]] {
					em.noteExpand(worker)
					stop := expand(ws, cur, func(c exploreCand) error {
						c.key = ws.arena.hold(c.key)
						out = append(out, c)
						if c.err != nil {
							return c.err // halt this chunk; the merge stops here
						}
						return nil
					})
					if stop != nil {
						break
					}
				}
				results[chunk] = out
			})
			for _, chunk := range results {
				for _, c := range chunk {
					if err := merge(c); err != nil {
						return nil, err
					}
				}
			}
			for i := range scratch {
				scratch[i].arena.reset()
			}
		}
		em.noteLevel(depth, len(frontier))
		frontier, next = next, frontier
		depth++
	}
	em.flush()
	return res, nil
}
