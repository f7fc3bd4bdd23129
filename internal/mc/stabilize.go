package mc

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"seqtx/internal/channel"
	"seqtx/internal/faults"
	"seqtx/internal/obs"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
)

// This file implements the model checker's stabilization mode: exhaustive
// BFS from CORRUPTED initial configurations (scrambled local states ×
// seeded channel junk), deciding whether the protocol self-stabilizes —
// every infinite run performs only finitely many "bad" writes, after
// which Y's suffix follows consecutive positions of X (the DDPT-style
// convergence property; see internal/protocol/stab).
//
// The state graph is a quotient: nodes are keyed on (s_S, s_R, link,
// alignment automaton) and deliberately EXCLUDE |Y|. Process and channel
// steps never read Y, and the alignment automaton is a deterministic
// function of the write stream, so transitions are well-defined on the
// quotient — and only the quotient has cycles at all (|Y| is monotone).
// A cycle containing a bad-write edge therefore unrolls into a real run
// with infinitely many bad writes: a sound refutation lasso. Conversely,
// if the frontier exhausts with no bad edge inside any strongly connected
// component, every run eventually stops writing badly — a full proof of
// stabilization over the explored corrupted frontier.

// StabilizeConfig bounds a stabilization check.
type StabilizeConfig struct {
	// MaxDepth bounds the BFS depth (0 = 512).
	MaxDepth int
	// MaxStates caps the visited-state count (0 = 1<<20).
	MaxStates int
	// Scrambles is the number of scrambled (S, R) root pairs (0 = 24).
	Scrambles int
	// ChannelJunk is the number of seeded channel fillings tried per
	// scramble pair, the no-junk filling included (0 = 4).
	ChannelJunk int
	// Seed drives the root corruption (scramble and junk streams are
	// derived per root via faults.SubSeed, so one seed reproduces the
	// whole frontier).
	Seed int64
	// Obs, when non-nil, receives engine metrics (see ExploreConfig.Obs).
	Obs *obs.Registry
}

func (c *StabilizeConfig) normalize() {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 512
	}
	if c.MaxStates == 0 {
		c.MaxStates = 1 << 20
	}
	if c.Scrambles <= 0 {
		c.Scrambles = 24
	}
	if c.ChannelJunk <= 0 {
		c.ChannelJunk = 4
	}
}

// StabilizeResult reports a stabilization check.
type StabilizeResult struct {
	// Roots is the number of distinct corrupted starting configurations.
	Roots int
	// States is the number of distinct quotient states visited.
	States int
	// Depth is the deepest BFS level at which a new quotient state was
	// admitted (roots are level 0; see ExploreResult.Depth).
	Depth int
	// Exhausted reports that the frontier drained within bounds: the
	// quotient graph was explored completely from every root.
	Exhausted bool
	// Truncated reports that MaxDepth or MaxStates stopped expansion.
	Truncated bool
	// BadWrites is the number of distinct bad-write edges in the graph.
	BadWrites int
	// LastBadDepth is the deepest BFS level that traversed a bad-write
	// edge (-1 if none): the worst-case stabilization time in scheduler
	// steps along shortest corrupting schedules — after this many steps
	// from the worst corrupted start, no NEW corruption evidence exists
	// at any further shortest-path depth.
	LastBadDepth int
	// Refuted reports a bad-write edge inside a strongly connected
	// component: a lasso run with infinitely many bad writes exists, so
	// the protocol does not stabilize from this frontier.
	Refuted bool
	// Witness is the refutation lasso (stem from a corrupted root, then
	// the cycle), nil unless Refuted.
	Witness *Witness
	// WitnessCycleLen is the cycle portion's length of the witness.
	WitnessCycleLen int
	// WitnessRootScramble / WitnessRootJunk identify the corrupted root
	// the witness stem starts from: the scramble pair index and junk
	// filling index (deterministic functions of Seed), so the exact
	// corrupted start can be rebuilt. -1 unless Refuted.
	WitnessRootScramble int
	WitnessRootJunk     int
	// ConvergedRoots counts roots from which a fully converged state
	// (suffix aligned through the end of X) is reachable.
	ConvergedRoots int
}

// Stabilizes reports a full proof: every explored corrupted start, with
// the whole quotient graph in bounds, admits only finitely many bad
// writes on every run.
func (r *StabilizeResult) Stabilizes() bool { return r.Exhausted && !r.Refuted }

// edge is one recorded transition of a search graph: from node, to node,
// by mv, over a bad write or not.
type edge struct {
	from, to int32
	mv       sim.Move
	bad      bool
}

// stabNode is a quotient state by identity: the global state and the
// suffix-alignment automaton (roots start unaligned), and no |Y|.
type stabNode struct {
	st    sim.State
	align seq.Align
}

// Hash leaves Aligned out: nodes that differ only there share a probe.
func (n stabNode) Hash() uint64 { return n.st.Hash() + uint64(n.align.Pos) }

// CheckStabilize explores the corrupted-frontier quotient graph of
// (spec, input, kind) and decides self-stabilization over it. Roots are
// built by scramble-restarting both processes (World.Apply) and seeding
// the link with in-alphabet junk; protocols without Scrambler hooks fall
// back to initial-state roots (amnesia), which still exercises channel
// corruption.
func CheckStabilize(spec protocol.Spec, input seq.Seq, kind channel.Kind, cfg StabilizeConfig) (*StabilizeResult, error) {
	cfg.normalize()
	roots, lanes, err := corruptedRoots(spec, input, kind, cfg)
	if err != nil {
		return nil, err
	}
	return stabilize(sim.NewSystem(roots[0]), roots, lanes, cfg)
}

// stabilize is CheckStabilize from the given roots in sys (see explore).
func stabilize(sys *sim.System, roots []*sim.World, lanes [][2]int, cfg StabilizeConfig) (*StabilizeResult, error) {
	input := roots[0].Input
	res := &StabilizeResult{LastBadDepth: -1, WitnessRootScramble: -1, WitnessRootJunk: -1}
	g := sim.NewGraph[stabNode, stabNode, sim.Move](cfg.MaxStates)
	defer flush(newEngineMetrics(cfg.Obs, "stabilize", true), g)

	// Besides the graph's nodes and shortest stems, the quotient keeps an
	// edge for every transition, duplicates included — cycles live
	// exactly there. A transition whose target the state cap refused is
	// dropped, so the SCC analysis only reasons about admitted nodes.
	var edges []edge
	var rootIDs []int32
	rootLane := make(map[int32][2]int)
	for ri, w := range roots {
		n := stabNode{st: sys.Intern(w)}
		if id, fresh := g.Admit(n, n, -1, sim.Move{}); fresh {
			rootIDs = append(rootIDs, id)
			rootLane[id] = lanes[ri]
		}
	}
	res.Roots = len(rootIDs)

	var moves []sim.Move
	err := g.Levels(cfg.MaxDepth, func(i int32) (bool, error) {
		cur := g.Nodes[i]
		moves = sys.Moves(moves[:0], cur.st)
		for _, mv := range moves {
			step, err := sys.Step(cur.st, mv)
			if err != nil {
				return false, fmt.Errorf("mc: stabilize: applying %s: %w", sys.Action(mv), err)
			}
			child, bad := stabNode{step.Next, cur.align}, false
			for _, v := range step.Writes {
				var b bool
				child.align, b = child.align.Step(v, input)
				bad = bad || b
			}
			id, _ := g.Admit(child, child, i, mv)
			if id < 0 {
				continue
			}
			edges = append(edges, edge{from: i, to: id, mv: mv, bad: bad})
			if bad {
				res.BadWrites++
				res.LastBadDepth = g.Level
			}
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	res.States, res.Depth, res.Truncated = len(g.Nodes), g.Depth, g.Cut
	res.Exhausted = !res.Truncated
	n := int32(len(g.Nodes))

	// Lasso analysis: a bad edge whose endpoints share an SCC (or a bad
	// self-loop) witnesses a run with infinitely many bad writes.
	comp := sccOf(n, edges)
	for _, e := range edges {
		if !e.bad {
			continue
		}
		if e.from == e.to || comp[e.from] == comp[e.to] {
			res.Refuted = true
			res.Witness, res.WitnessCycleLen = stabWitness(sys, input, g.Path(e.from), e, edges, n)
			root := e.from
			for g.Links[root].Parent >= 0 {
				root = g.Links[root].Parent
			}
			if lane, ok := rootLane[root]; ok {
				res.WitnessRootScramble, res.WitnessRootJunk = lane[0], lane[1]
			}
			break
		}
	}

	// Convergence reachability: the nodes a converged state is reachable
	// from.
	converges := make([]bool, n)
	for i, node := range g.Nodes {
		converges[i] = node.align.Converged(input)
	}
	coreach(converges, edges)
	for _, r := range rootIDs {
		if converges[r] {
			res.ConvergedRoots++
		}
	}
	return res, nil
}

// corruptedRoots builds the scrambled frontier: Scrambles seeded (S, R)
// pairs, each under ChannelJunk seeded link fillings (filling 0 is the
// empty link). Junk is drawn from each direction's own alphabet — the
// adversary corrupts state, not the finite-alphabet assumption — and is
// bounded per direction so unbounded kinds get a finite frontier too.
func corruptedRoots(spec protocol.Spec, input seq.Seq, kind channel.Kind, cfg StabilizeConfig) ([]*sim.World, [][2]int, error) {
	var roots []*sim.World
	var lanes [][2]int
	for i := 0; i < cfg.Scrambles; i++ {
		for j := 0; j < cfg.ChannelJunk; j++ {
			link, err := channel.NewLinkOfKind(kind)
			if err != nil {
				return nil, nil, err
			}
			w, err := sim.New(spec, input, link)
			if err != nil {
				return nil, nil, err
			}
			lane := uint64(i)<<8 | uint64(j)
			if err := errors.Join(w.Apply(trace.ScrambleS(faults.SubSeed(cfg.Seed, lane|1<<32))),
				w.Apply(trace.ScrambleR(faults.SubSeed(cfg.Seed, lane|2<<32)))); err != nil {
				return nil, nil, err
			}
			if j > 0 {
				rng := rand.New(rand.NewSource(faults.SubSeed(cfg.Seed, lane|3<<32)))
				for _, dir := range []channel.Dir{channel.SToR, channel.RToS} {
					alp := w.S.Alphabet()
					if dir == channel.RToS {
						alp = w.R.Alphabet()
					}
					msgs := alp.Msgs()
					if len(msgs) == 0 {
						continue // unbounded-alphabet baseline: no junk domain
					}
					for k := rng.Intn(3); k > 0; k-- {
						// Send enforces the alphabet; bounded halves shed
						// overflow themselves.
						if err := w.Link.Send(dir, msgs[rng.Intn(len(msgs))]); err != nil {
							return nil, nil, err
						}
					}
				}
			}
			roots = append(roots, w)
			lanes = append(lanes, [2]int{i, j})
		}
	}
	return roots, lanes, nil
}

// stabWitness assembles the refutation lasso for bad edge e: the shortest
// discovery stem from a root to e.from, then e itself, then a shortest
// path from e.to back to e.from (empty for a self-loop) in the graph of
// n nodes. The combined action list replays to a run that can repeat its
// cycle forever.
func stabWitness(sys *sim.System, input seq.Seq, stem []sim.Move, e edge, edges []edge, n int32) (*Witness, int) {
	moves := append(stem, e.mv)
	if e.to != e.from {
		moves = append(moves, shortestPath(n, e.to, e.from, edges)...)
	}
	stemLen := len(stem)
	cycleLen := len(moves) - stemLen
	return &Witness{
		Input:   input.Clone(),
		Actions: actions(sys, moves),
		Err: fmt.Errorf("stabilization refuted: a bad write lies on a cycle "+
			"(stem %d steps, cycle %d steps) — the run can repeat it forever",
			stemLen, cycleLen),
	}, cycleLen
}

// shortestPath BFS-es from src to dst over the recorded edges of a graph
// of n nodes and returns the moves along a shortest path.
func shortestPath(n, src, dst int32, edges []edge) []sim.Move {
	adj := make([][]int, n)
	for i, e := range edges {
		adj[e.from] = append(adj[e.from], i)
	}
	type hop struct {
		prev int32
		edge int
	}
	visited := make([]bool, n)
	hops := make([]hop, n)
	queue := []int32{src}
	visited[src] = true
	hops[src] = hop{prev: -1}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == dst {
			var moves []sim.Move
			for cur := u; hops[cur].prev >= 0; cur = hops[cur].prev {
				moves = append(moves, edges[hops[cur].edge].mv)
			}
			slices.Reverse(moves)
			return moves
		}
		for _, ei := range adj[u] {
			v := edges[ei].to
			if !visited[v] {
				visited[v] = true
				hops[v] = hop{prev: u, edge: ei}
				queue = append(queue, v)
			}
		}
	}
	return nil
}

// coreach extends the marked set of nodes (mark has one entry per node)
// to every node from which a marked one is reachable over edges: a
// reverse BFS from the marked nodes.
func coreach(mark []bool, edges []edge) {
	radj := make([][]int32, len(mark))
	for _, e := range edges {
		radj[e.to] = append(radj[e.to], e.from)
	}
	var queue []int32
	for i, m := range mark {
		if m {
			queue = append(queue, int32(i))
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range radj[v] {
			if !mark[u] {
				mark[u] = true
				queue = append(queue, u)
			}
		}
	}
}

// sccOf computes strongly connected components (iterative Tarjan) and
// returns the component id of every node.
func sccOf(n int32, edges []edge) []int32 {
	adj := make([][]int32, n)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	comp := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int32
	var counter, comps int32

	type frame struct {
		v    int32
		next int
	}
	for start := int32(0); start < n; start++ {
		if index[start] != unvisited {
			continue
		}
		callStack := []frame{{v: start}}
		index[start] = counter
		low[start] = counter
		counter++
		stack = append(stack, start)
		onStack[start] = true
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			if f.next < len(adj[f.v]) {
				w := adj[f.v][f.next]
				f.next++
				if index[w] == unvisited {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// Pop f.v.
			v := f.v
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := callStack[len(callStack)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = comps
					if w == v {
						break
					}
				}
				comps++
			}
		}
	}
	return comp
}
