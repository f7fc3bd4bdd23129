package sim

import "slices"

// Graph is the bookkeeping every breadth-first search over a System
// shares. K is a node's identity, N the node and E what a node was first
// reached by. The search itself — which moves to try, what to check
// before admitting a child, what to record besides — stays with the
// caller; the graph only admits, deduplicates, caps and orders.
//
// The rules, stated once: nodes are kept in admission order, so a level
// is a contiguous run of Nodes and expanding level by level is the FIFO
// queue with its depths made explicit. A child whose identity is already
// admitted is a dedup hit, whatever the cap; a new one is refused once
// MaxStates nodes are admitted, and the refusal sets Cut. So does a
// non-empty level at the depth bound, which is not expanded. Links[i]
// records how node i was first reached, which makes Links a
// shortest-path forest from the roots.
//
// The identity index is an open-addressed table of ids keyed by K's
// Hash, kept at most half full. The hash decides only where an id sits
// in the table, never which id a node gets, so no result depends on it.
type Graph[K Key, N any, E any] struct {
	// Nodes holds every admitted node in admission order.
	Nodes []N
	// Links is the shortest-path forest: Links[i] says how Nodes[i] was
	// first reached.
	Links []Link[E]
	// Bounds delimits the levels Levels expanded: Nodes[Bounds[d]:
	// Bounds[d+1]] is level d, and len(Bounds)-2 levels were expanded in
	// full.
	Bounds []int32
	// Cut reports that the state cap refused a node or the depth bound
	// left a level unexpanded: the search is not complete.
	Cut bool
	// Level is the level admissions land on: 0 for the roots, d+1 while
	// level d is expanded.
	Level int
	// Depth is the level of the last node admitted.
	Depth int
	// Hits counts the arrivals at an identity already admitted.
	Hits int

	maxStates int
	keys      []K     // keys[i] is the identity of Nodes[i]
	index     []int32 // id+1 of the node filed at a slot; 0 is empty
	shift     uint    // 64 - log2(len(index)): a hash's top bits pick its slot
}

// Key is a node identity a Graph can file. Hash must agree with ==;
// sim.State.Hash is the mixer each key composes.
type Key interface {
	comparable
	Hash() uint64
}

// Link is how a search first reached a node: from Parent (-1 for a root)
// by Via.
type Link[E any] struct {
	Parent int32
	Via    E
}

// NewGraph returns an empty graph that admits at most maxStates nodes.
func NewGraph[K Key, N any, E any](maxStates int) *Graph[K, N, E] {
	return &Graph[K, N, E]{maxStates: maxStates, index: make([]int32, 256), shift: 64 - 8}
}

// Admit takes a node reached from parent by via into the graph. On a
// dedup hit it returns the id the identity already has; at the state cap
// it returns -1; otherwise it files n under a fresh id and reports fresh.
func (g *Graph[K, N, E]) Admit(k K, n N, parent int32, via E) (id int32, fresh bool) {
	slot := g.slot(k)
	for ; g.index[slot] != 0; slot = (slot + 1) & (len(g.index) - 1) {
		if id := g.index[slot] - 1; g.keys[id] == k {
			g.Hits++
			return id, false
		}
	}
	if len(g.Nodes) >= g.maxStates {
		g.Cut = true
		return -1, false
	}
	id = int32(len(g.Nodes))
	g.index[slot] = id + 1
	g.keys = push(g.keys, k)
	g.Nodes = push(g.Nodes, n)
	g.Links = push(g.Links, Link[E]{parent, via})
	g.Depth = g.Level
	if 2*len(g.keys) > len(g.index) {
		g.grow()
	}
	return id, true
}

// slot is where k's probe starts: the top bits of its Fibonacci-hashed
// Hash.
func (g *Graph[K, N, E]) slot(k K) int {
	return int(k.Hash() * 0x9e3779b97f4a7c15 >> g.shift)
}

// grow doubles the index and files every id again.
func (g *Graph[K, N, E]) grow() {
	g.index = make([]int32, 2*len(g.index))
	g.shift--
	for i, k := range g.keys {
		slot := g.slot(k)
		for g.index[slot] != 0 {
			slot = (slot + 1) & (len(g.index) - 1)
		}
		g.index[slot] = int32(i) + 1
	}
}

// push appends v, doubling s when it is full (append alone grows a long
// slice by about a quarter, re-copying it many times over).
func push[S ~[]T, T any](s S, v T) S {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), 64))
	}
	return append(s, v)
}

// Levels expands the graph from the nodes admitted so far (level 0),
// calling expand on every node of a level, in admission order, before
// any node of the next, until a level is empty or maxDepth is reached.
// expand admits the node's children; it ends the search early by
// returning stop or an error, which Levels returns.
func (g *Graph[K, N, E]) Levels(maxDepth int, expand func(i int32) (stop bool, err error)) error {
	g.Bounds = append(g.Bounds[:0], 0, int32(len(g.Nodes)))
	for d := 0; ; d++ {
		lo, hi := g.Bounds[d], g.Bounds[d+1]
		if lo == hi {
			return nil
		}
		if d >= maxDepth {
			g.Cut = true
			return nil
		}
		g.Level = d + 1
		for i := lo; i < hi; i++ {
			if stop, err := expand(i); stop || err != nil {
				return err
			}
		}
		g.Bounds = append(g.Bounds, int32(len(g.Nodes)))
	}
}

// Path returns what the shortest path from a root to node i went by.
func (g *Graph[K, N, E]) Path(i int32) []E {
	var path []E
	for ; g.Links[i].Parent >= 0; i = g.Links[i].Parent {
		path = append(path, g.Links[i].Via)
	}
	slices.Reverse(path)
	return path
}
