package mc

import (
	"fmt"
	"strings"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
)

// Side tags a product action with the run(s) it applies to.
type Side int

// Product action sides.
const (
	// Left applies only to the first run (input X1); the receiver is
	// untouched, so its views stay synchronized.
	Left Side = iota + 1
	// Right applies only to the second run.
	Right
	// Both applies a receiver-visible event to the two runs in lockstep —
	// the construction that keeps (r,t) ~_R (r',t).
	Both
)

// String names the side.
func (s Side) String() string {
	switch s {
	case Left:
		return "L"
	case Right:
		return "R"
	case Both:
		return "B"
	default:
		return fmt.Sprintf("Side(%d)", int(s))
	}
}

// ProductAction is one lockstep-exploration step.
type ProductAction struct {
	Side Side
	// Act is the action on the tagged side; for Side == Both, Act applies
	// to the left run and ActRight to the right run (they may differ in
	// kind — e.g. a consuming delivery on one side paired with a
	// duplicating one on the other — but deliver the same message).
	Act      trace.Action
	ActRight trace.Action
}

// String renders the product action.
func (a ProductAction) String() string {
	if a.Side == Both {
		if a.Act.Key() == a.ActRight.Key() {
			return "B:" + a.Act.String()
		}
		return "B:" + a.Act.String() + "/" + a.ActRight.String()
	}
	return a.Side.String() + ":" + a.Act.String()
}

// ProductWitness is a counterexample pair of runs: different inputs, equal
// receiver views throughout, and an output that is unsafe for one input.
type ProductWitness struct {
	X1, X2  seq.Seq
	Actions []ProductAction
	Output  seq.Seq
	// ViolatedInput is the input whose run's safety broke (X1 or X2).
	ViolatedInput seq.Seq
	Err           error
}

// String renders the witness.
func (w *ProductWitness) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "runs on X1 = %s and X2 = %s, R-indistinguishable throughout;\n", w.X1, w.X2)
	fmt.Fprintf(&b, "shared output %s violates the run on %s: %v\n", w.Output, w.ViolatedInput, w.Err)
	for i, a := range w.Actions {
		fmt.Fprintf(&b, "  %3d. %s\n", i+1, a)
	}
	return b.String()
}

// ProductResult reports a lockstep exploration.
type ProductResult struct {
	States    int
	Depth     int
	Truncated bool
	Violation *ProductWitness
}

type productNode struct {
	w1, w2 *sim.World
	parent *productNode
	act    ProductAction
	depth  int
}

func (n *productNode) path() []ProductAction {
	var acts []ProductAction
	for cur := n; cur.parent != nil; cur = cur.parent {
		acts = append(acts, cur.act)
	}
	for i, j := 0, len(acts)-1; i < j; i, j = i+1, j-1 {
		acts[i], acts[j] = acts[j], acts[i]
	}
	return acts
}

// Refute explores the synchronized product of the runs of (spec, x1) and
// (spec, x2) over the channel kind: the receiver experiences identical
// event sequences in both runs, while each sender side moves freely. It
// reports the first reachable pair of R-indistinguishable points whose
// shared output violates safety for one of the inputs — the executable
// content of the paper's Lemma 1/Lemma 3 adversary. A nil Violation with
// Truncated == false means no such pair exists at all (the exploration
// closed); with Truncated == true it means none exists within the bounds.
func Refute(spec protocol.Spec, x1, x2 seq.Seq, kind channel.Kind, cfg ExploreConfig) (*ProductResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if x1.Equal(x2) {
		return nil, fmt.Errorf("mc: product inputs must differ, both are %s", x1)
	}
	mk := func(x seq.Seq) (*sim.World, error) {
		link, err := channel.NewLinkOfKind(kind)
		if err != nil {
			return nil, err
		}
		return sim.New(spec, x, link)
	}
	w1, err := mk(x1)
	if err != nil {
		return nil, err
	}
	w2, err := mk(x2)
	if err != nil {
		return nil, err
	}
	res := &ProductResult{States: 1}
	workers := cfg.workerCount()
	scratch := newScratch(workers)
	em := newEngineMetrics(cfg.Obs, "refute", workers, true)
	em.noteMerge(true) // the root product state
	idx := newStateIndex()
	rootKey := productKey(scratch[0].keyBuf, w1, w2)
	idx.insert(hashBytes(rootKey), stableCopy(rootKey))

	frontier := []*productNode{{w1: w1, w2: w2}}
	depth := 0
	var next []*productNode
	var bufs [][]productCand // per-chunk candidates, reused across levels

	merge := func(c productCand) error {
		if c.err != nil {
			return c.err
		}
		if res.Violation == nil {
			if v := violationOf(c.child.w1, c.child.w2, x1, x2); v != nil {
				v.Actions = c.child.path()
				res.Violation = v
			}
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

	expand := func(ws *workerScratch, cur *productNode, emit func(productCand) error) error {
		ws.pacts = appendProductActions(ws.pacts[:0], cur.w1, cur.w2)
		for _, pa := range ws.pacts {
			n1, n2, perr := applyProduct(cur.w1, cur.w2, pa)
			if perr != nil {
				return emit(productCand{err: perr})
			}
			ws.keyBuf = productKey(ws.keyBuf[:0], n1, n2)
			if err := emit(productCand{
				child: &productNode{w1: n1, w2: n2, parent: cur, act: pa, depth: cur.depth + 1},
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
					stop := expand(ws, cur, func(c productCand) error {
						c.key = ws.arena.hold(c.key)
						out = append(out, c)
						if c.err != nil {
							return c.err
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

// productCand is one expanded product transition awaiting the merge.
type productCand struct {
	child *productNode
	key   []byte
	hash  uint64
	err   error
}

// productKey appends the canonical binary key of the product state: both
// worlds' self-delimiting encodings back to back.
func productKey(buf []byte, a, b *sim.World) []byte {
	buf = a.EncodeKey(buf)
	return b.EncodeKey(buf)
}

func violationOf(w1, w2 *sim.World, x1, x2 seq.Seq) *ProductWitness {
	switch {
	case w1.SafetyViolation != nil:
		return &ProductWitness{
			X1: x1.Clone(), X2: x2.Clone(),
			Output: w1.Output.Clone(), ViolatedInput: x1.Clone(), Err: w1.SafetyViolation,
		}
	case w2.SafetyViolation != nil:
		return &ProductWitness{
			X1: x1.Clone(), X2: x2.Clone(),
			Output: w2.Output.Clone(), ViolatedInput: x2.Clone(), Err: w2.SafetyViolation,
		}
	default:
		return nil
	}
}

// appendProductActions enumerates the product moves: sender-side actions
// on either run alone (invisible to R) and receiver-visible events applied
// to both runs. It appends to acts (exploration loops pass a reused
// buffer) and returns the extended slice.
func appendProductActions(acts []ProductAction, w1, w2 *sim.World) []ProductAction {
	sides := []struct {
		side Side
		w    *sim.World
	}{{Left, w1}, {Right, w2}}
	for _, sw := range sides {
		side, w := sw.side, sw.w
		acts = append(acts, ProductAction{Side: side, Act: trace.TickS()})
		for dir := channel.SToR; dir <= channel.RToS; dir++ {
			half := w.Link.Half(dir)
			for i := 0; ; i++ {
				m, ok := half.Support(i)
				if !ok {
					break
				}
				if dir == channel.RToS {
					acts = append(acts, ProductAction{Side: side, Act: trace.Deliver(dir, m)})
					if f, ok := half.(*channel.FIFO); ok && f.AllowsDup() {
						acts = append(acts, ProductAction{Side: side, Act: trace.DeliverDup(dir, m)})
					}
				}
				// Drops are invisible to R in both directions.
				if half.CanDrop(m) {
					acts = append(acts, ProductAction{Side: side, Act: trace.Drop(dir, m)})
				}
			}
		}
	}
	// Receiver-visible synchronized events.
	acts = append(acts, ProductAction{Side: Both, Act: trace.TickR(), ActRight: trace.TickR()})
	for i := 0; ; i++ {
		m, ok := w1.Link.Half(channel.SToR).Support(i)
		if !ok {
			break
		}
		ways1 := feedWays(w1, m)
		ways2 := feedWays(w2, m)
		for _, a1 := range ways1 {
			for _, a2 := range ways2 {
				acts = append(acts, ProductAction{Side: Both, Act: a1, ActRight: a2})
			}
		}
	}
	return acts
}

// feedWays lists the ways run w can deliver message m to R right now.
func feedWays(w *sim.World, m msg.Msg) []trace.Action {
	half := w.Link.Half(channel.SToR)
	if !half.CanDeliver(m) {
		return nil
	}
	ways := []trace.Action{trace.Deliver(channel.SToR, m)}
	if f, ok := half.(*channel.FIFO); ok && f.AllowsDup() {
		ways = append(ways, trace.DeliverDup(channel.SToR, m))
	}
	return ways
}

func applyProduct(w1, w2 *sim.World, pa ProductAction) (*sim.World, *sim.World, error) {
	n1, n2 := w1, w2
	var err error
	switch pa.Side {
	case Left:
		if n1, err = w1.Successor(pa.Act); err != nil {
			return nil, nil, fmt.Errorf("mc: product left %s: %w", pa.Act, err)
		}
	case Right:
		if n2, err = w2.Successor(pa.Act); err != nil {
			return nil, nil, fmt.Errorf("mc: product right %s: %w", pa.Act, err)
		}
	case Both:
		if n1, err = w1.Successor(pa.Act); err != nil {
			return nil, nil, fmt.Errorf("mc: product both/left %s: %w", pa.Act, err)
		}
		if n2, err = w2.Successor(pa.ActRight); err != nil {
			return nil, nil, fmt.Errorf("mc: product both/right %s: %w", pa.ActRight, err)
		}
		if n1.R.Key() != n2.R.Key() {
			return nil, nil, fmt.Errorf(
				"mc: receiver states diverged under identical views (%s vs %s): protocol is nondeterministic",
				n1.R.Key(), n2.R.Key())
		}
	default:
		return nil, nil, fmt.Errorf("mc: bad product side %d", int(pa.Side))
	}
	return n1, n2, nil
}
