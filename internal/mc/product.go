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
	States int
	// Depth is the deepest BFS level at which a new product state was
	// admitted (see ExploreResult.Depth).
	Depth     int
	Truncated bool
	Violation *ProductWitness
}

// productMove is a ProductAction in the tabulated system's vocabulary.
type productMove struct {
	side      Side
	mv, right sim.Move
}

func (pm productMove) action(sys *sim.System) ProductAction {
	pa := ProductAction{Side: pm.side, Act: sys.Action(pm.mv)}
	if pm.side == Both {
		pa.ActRight = sys.Action(pm.right)
	}
	return pa
}

// productNode is a pair of runs by identity. Both runs live in one
// tabulated system, so their receivers (and messages) compare by id.
type productNode struct {
	st1, st2 sim.State
	t1, t2   seq.Tape
}

// productKey is a product state's identity: both runs' components and
// tape lengths.
type productKey struct {
	st1, st2 sim.State
	y1, y2   int32
}

func (k productKey) Hash() uint64 {
	return k.st1.Hash()*31 + k.st2.Hash() + uint64(k.y1)<<32 + uint64(k.y2)
}

func (n productNode) key() productKey { return productKey{n.st1, n.st2, n.t1.Len, n.t2.Len} }

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
	return refute(sim.NewSystem(w1), w1, w2, cfg)
}

// refute is Refute from the pair (w1, w2) in sys (see explore).
func refute(sys *sim.System, w1, w2 *sim.World, cfg ExploreConfig) (*ProductResult, error) {
	x1, x2 := w1.Input, w2.Input
	res := &ProductResult{}
	g := sim.NewGraph[productKey, productNode, productMove](cfg.MaxStates)
	defer flush(newEngineMetrics(cfg.Obs, "refute", true), g)
	root := productNode{st1: sys.Intern(w1), st2: sys.Intern(w2), t1: w1.Tape(), t2: w2.Tape()}
	g.Admit(root.key(), root, -1, productMove{})

	var moves []sim.Move
	var pmoves []productMove
	err := g.Levels(cfg.MaxDepth, func(i int32) (bool, error) {
		cur := g.Nodes[i]
		moves, pmoves = appendProductMoves(sys, moves[:0], pmoves[:0], cur.st1, cur.st2)
		for _, pm := range pmoves {
			child, err := applyProduct(sys, cur, pm, x1, x2)
			if err != nil {
				return false, err
			}
			if (child.t1.Violated || child.t2.Violated) && res.Violation == nil { // before dedup: see explore
				if res.Violation, err = productWitness(sys, w1, w2, append(g.Path(i), pm), child); err != nil {
					return false, err
				}
			}
			g.Admit(child.key(), child, i, pm)
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	res.States, res.Depth, res.Truncated = len(g.Nodes), g.Depth, g.Cut
	return res, nil
}

// productWitness turns node c reached by path, one of whose runs has left
// its input, into the counterexample pair: the product path to it, and
// the broken run (the first when both broke) replayed for its tape.
func productWitness(sys *sim.System, w1, w2 *sim.World, path []productMove, c productNode) (*ProductWitness, error) {
	acts := make([]ProductAction, len(path))
	for k, pm := range path {
		acts[k] = pm.action(sys)
	}
	bad, side := w1, Left
	if !c.t1.Violated {
		bad, side = w2, Right
	}
	var run []trace.Action
	for _, pa := range acts {
		switch {
		case pa.Side == side || (pa.Side == Both && side == Left):
			run = append(run, pa.Act)
		case pa.Side == Both:
			run = append(run, pa.ActRight)
		}
	}
	end, err := sim.Accept(bad.Clone(), run, sim.Config{})
	if err != nil {
		return nil, err
	}
	return &ProductWitness{
		X1: w1.Input.Clone(), X2: w2.Input.Clone(), Actions: acts,
		Output: end.Output, ViolatedInput: bad.Input.Clone(), Err: end.SafetyViolation,
	}, nil
}

// feedsReceiver reports whether mv delivers a message to R.
func feedsReceiver(mv sim.Move) bool {
	return mv.Dir == channel.SToR && (mv.Kind == trace.ActDeliver || mv.Kind == trace.ActDeliverDup)
}

// appendProductMoves enumerates the product moves: the moves of either
// run that R cannot see, on that run alone (sender ticks, deliveries to
// S, drops in both directions), then the receiver-visible events applied
// to both runs — a tick, and every way the two runs can each deliver the
// same message. It appends the runs' own moves to moves and the product
// moves to buf (both reused across nodes) and returns the two.
func appendProductMoves(sys *sim.System, moves []sim.Move, buf []productMove, st1, st2 sim.State) ([]sim.Move, []productMove) {
	moves = sys.Moves(moves, st1)
	n1 := len(moves)
	moves = sys.Moves(moves, st2)
	moves1, moves2 := moves[:n1], moves[n1:]
	for _, mv := range moves1 {
		if mv.Kind != trace.ActTickR && !feedsReceiver(mv) {
			buf = append(buf, productMove{side: Left, mv: mv})
		}
	}
	for _, mv := range moves2 {
		if mv.Kind != trace.ActTickR && !feedsReceiver(mv) {
			buf = append(buf, productMove{side: Right, mv: mv})
		}
	}
	tick := sim.Move{Kind: trace.ActTickR}
	buf = append(buf, productMove{Both, tick, tick})
	for _, a1 := range moves1 {
		if !feedsReceiver(a1) {
			continue
		}
		for _, a2 := range moves2 {
			if feedsReceiver(a2) && a2.Msg == a1.Msg {
				buf = append(buf, productMove{Both, a1, a2})
			}
		}
	}
	return moves, buf
}

// applyProduct steps the run(s) pm names and returns the child pair.
func applyProduct(sys *sim.System, n productNode, pm productMove, x1, x2 seq.Seq) (productNode, error) {
	step := func(st *sim.State, t *seq.Tape, x seq.Seq, mv sim.Move, side string) error {
		s, err := sys.Step(*st, mv)
		if err != nil {
			return fmt.Errorf("mc: product %s %s: %w", side, sys.Action(mv), err)
		}
		*st, *t = s.Next, t.Write(x, s.Writes)
		return nil
	}
	var err error
	switch pm.side {
	case Left:
		err = step(&n.st1, &n.t1, x1, pm.mv, "left")
	case Right:
		err = step(&n.st2, &n.t2, x2, pm.mv, "right")
	case Both:
		if err = step(&n.st1, &n.t1, x1, pm.mv, "both/left"); err == nil {
			err = step(&n.st2, &n.t2, x2, pm.right, "both/right")
		}
		if err == nil && n.st1.R != n.st2.R {
			err = fmt.Errorf(
				"mc: receiver states diverged under identical views (%s vs %s): protocol is nondeterministic",
				sys.World(n.st1).R.Key(), sys.World(n.st2).R.Key())
		}
	}
	return n, err
}
