package sim

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// ikey is an int identity whose Hash is the identity.
type ikey int

func (k ikey) Hash() uint64 { return uint64(k) }

// steps expands the integers from 0, each stepping to n+1 and n+2, so
// most nodes are reached twice.
func steps(g *Graph[ikey, int, int]) func(i int32) (bool, error) {
	return func(i int32) (bool, error) {
		n := g.Nodes[i]
		for _, d := range []int{1, 2} {
			g.Admit(ikey(n+d), n+d, i, d)
		}
		return false, nil
	}
}

func TestGraphLevels(t *testing.T) {
	g := NewGraph[ikey, int, int](100)
	if id, fresh := g.Admit(0, 0, -1, 0); id != 0 || !fresh {
		t.Fatalf("root admitted as (%d, %v)", id, fresh)
	}
	if err := g.Levels(3, steps(g)); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("nodes %v bounds %v cut %v depth %d hits %d", g.Nodes, g.Bounds, g.Cut, g.Depth, g.Hits)
	if want := "nodes [0 1 2 3 4 5 6] bounds [0 1 3 5 7] cut true depth 3 hits 4"; got != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
	for i, want := range map[int32][]int{0: nil, 2: {2}, 5: {1, 2, 2}, 6: {2, 2, 2}} {
		if p := g.Path(i); !slices.Equal(p, want) {
			t.Errorf("Path(%d) = %v, want %v", i, p, want)
		}
	}
	if id, fresh := g.Admit(4, 4, 0, 9); id != 4 || fresh || g.Links[4].Via != 2 {
		t.Errorf("a hit returned (%d, %v) and relinked node 4 to %+v", id, fresh, g.Links[4])
	}
}

func TestGraphCap(t *testing.T) {
	g := NewGraph[ikey, int, int](4)
	g.Admit(0, 0, -1, 0)
	if err := g.Levels(10, steps(g)); err != nil {
		t.Fatal(err)
	}
	if !g.Cut || len(g.Nodes) != 4 || len(g.Bounds) != 5 {
		t.Errorf("capped search: nodes %v bounds %v cut %v", g.Nodes, g.Bounds, g.Cut)
	}
	if id, fresh := g.Admit(7, 7, 3, 1); id != -1 || fresh {
		t.Errorf("a new node at the cap got (%d, %v)", id, fresh)
	}
	if id, _ := g.Admit(2, 2, 3, 1); id != 2 {
		t.Errorf("a hit at the cap got %d, want 2", id)
	}
}

func TestGraphStopAndError(t *testing.T) {
	for _, stopErr := range []error{nil, errors.New("boom")} {
		g := NewGraph[ikey, int, int](100)
		g.Admit(0, 0, -1, 0)
		expand := steps(g)
		level := 0
		err := g.Levels(10, func(i int32) (bool, error) {
			if g.Nodes[i] == 3 {
				level = g.Level
				return true, stopErr
			}
			return expand(i)
		})
		if err != stopErr || level != 3 || g.Cut || len(g.Bounds) != 4 {
			t.Errorf("stop with %v: err %v, stopped on level %d, bounds %v, cut %v", stopErr, err, level, g.Bounds, g.Cut)
		}
	}
}

// oneKey's Hash is a constant: every key lands in one probe chain.
type oneKey uint32

func (oneKey) Hash() uint64 { return 7 }

// refGraph is Graph's contract over a Go map, the index the id table
// replaced: admission, dedup before the cap, and the level loop.
type refGraph[K comparable] struct {
	nodes           []uint32
	links           []Link[int]
	bounds          []int32
	cut             bool
	level, depth    int
	hits, maxStates int
	index           map[K]int32
}

func (r *refGraph[K]) admit(k K, n uint32, parent int32, via int) (int32, bool) {
	if id, ok := r.index[k]; ok {
		r.hits++
		return id, false
	}
	if len(r.nodes) >= r.maxStates {
		r.cut = true
		return -1, false
	}
	id := int32(len(r.nodes))
	r.index[k] = id
	r.nodes = append(r.nodes, n)
	r.links = append(r.links, Link[int]{parent, via})
	r.depth = r.level
	return id, true
}

func (r *refGraph[K]) levels(maxDepth int, expand func(i int32)) {
	r.bounds = []int32{0, int32(len(r.nodes))}
	for d := 0; r.bounds[d] < r.bounds[d+1]; d++ {
		if d >= maxDepth {
			r.cut = true
			return
		}
		r.level = d + 1
		for i := r.bounds[d]; i < r.bounds[d+1]; i++ {
			expand(i)
		}
		r.bounds = append(r.bounds, int32(len(r.nodes)))
	}
}

// children is the seeded admission stream below a node: a node's
// children depend on the seed and its value only, so both graphs see
// the same stream as long as they agree on the nodes.
func children(seed uint64, n uint32, span int) []uint32 {
	rng := rand.New(rand.NewPCG(seed, uint64(n)))
	kids := make([]uint32, rng.IntN(5))
	for i := range kids {
		kids[i] = uint32(rng.IntN(span))
	}
	return kids
}

// outcome folds an admission's (id, fresh) into one number: the id when
// fresh, -2-id on a hit, -1 at the cap.
func outcome(id int32, fresh bool) int32 {
	if fresh || id < 0 {
		return id
	}
	return -2 - id
}

// compareAdmission drives one seeded stream with a cap through a Graph
// and through refGraph, and reports the first difference: a returned
// (id, fresh), or Nodes, Links, Bounds, Hits, Cut or Depth.
func compareAdmission[K Key](seed uint64, key func(uint32) K, span, maxStates, maxDepth int) error {
	roots := children(seed, uint32(span), span)
	g := NewGraph[K, uint32, int](maxStates)
	var got []int32
	admit := func(n uint32, parent int32, via int) {
		got = append(got, outcome(g.Admit(key(n), n, parent, via)))
	}
	for _, n := range roots {
		admit(n, -1, 0)
	}
	g.Levels(maxDepth, func(i int32) (bool, error) {
		for via, n := range children(seed, g.Nodes[i], span) {
			admit(n, i, via)
		}
		return false, nil
	})

	r := &refGraph[K]{maxStates: maxStates, index: map[K]int32{}}
	var want []int32
	radmit := func(n uint32, parent int32, via int) {
		want = append(want, outcome(r.admit(key(n), n, parent, via)))
	}
	for _, n := range roots {
		radmit(n, -1, 0)
	}
	r.levels(maxDepth, func(i int32) {
		for via, n := range children(seed, r.nodes[i], span) {
			radmit(n, i, via)
		}
	})

	switch {
	case !slices.Equal(got, want):
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		return fmt.Errorf("admission %d of %d returned %v, want %v", i, len(want), got[i:min(i+1, len(got))], want[i:min(i+1, len(want))])
	case !slices.Equal(g.Nodes, r.nodes) || !slices.Equal(g.Links, r.links):
		return fmt.Errorf("nodes %v links %v, want %v %v", g.Nodes, g.Links, r.nodes, r.links)
	case !slices.Equal(g.Bounds, r.bounds):
		return fmt.Errorf("bounds %v, want %v", g.Bounds, r.bounds)
	case g.Hits != r.hits || g.Cut != r.cut || g.Depth != r.depth:
		return fmt.Errorf("hits %d cut %v depth %d, want %d %v %d", g.Hits, g.Cut, g.Depth, r.hits, r.cut, r.depth)
	}
	return nil
}

// checkAdmission runs compareAdmission with both extreme hashes: the
// identity and a constant.
func checkAdmission(t *testing.T, seed uint64, span, maxStates, maxDepth int) {
	t.Helper()
	if err := compareAdmission(seed, func(n uint32) ikey { return ikey(n) }, span, maxStates, maxDepth); err != nil {
		t.Errorf("identity hash, seed %d span %d cap %d depth %d: %v", seed, span, maxStates, maxDepth, err)
	}
	if err := compareAdmission(seed, func(n uint32) oneKey { return oneKey(n) }, span, maxStates, maxDepth); err != nil {
		t.Errorf("constant hash, seed %d span %d cap %d depth %d: %v", seed, span, maxStates, maxDepth, err)
	}
}

// TestGraphIndexExact pins that the id table cannot change a result:
// seeded streams, capped and uncapped, past several doublings of the
// table, give what a map-indexed graph gives.
func TestGraphIndexExact(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		span := []int{3, 100, 700, 3000}[seed%4]
		for _, maxStates := range []int{1, span / 3, span + 1} {
			checkAdmission(t, seed, span, max(maxStates, 1), 64)
		}
		checkAdmission(t, seed, span, span, 3)
	}
}

func FuzzGraphAdmit(f *testing.F) {
	f.Add(uint64(1), uint16(100), uint16(40), uint8(64))
	f.Add(uint64(2), uint16(3000), uint16(3000), uint8(5))
	f.Add(uint64(3), uint16(600), uint16(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, span, maxStates uint16, maxDepth uint8) {
		checkAdmission(t, seed, 1+int(span)%4096, 1+int(maxStates), int(maxDepth))
	})
}

// benchKey is the explorer's key: a state and a tape length.
type benchKey struct {
	st   State
	ylen int32
}

func (k benchKey) Hash() uint64 { return k.st.Hash() + uint64(k.ylen) }

func benchKeys(n int) []benchKey {
	rng := rand.New(rand.NewPCG(1, 2))
	keys := make([]benchKey, n)
	for i := range keys {
		keys[i] = benchKey{State{rng.Int32N(4000), rng.Int32N(300), rng.Int32N(60), rng.Int32N(60)}, int32(i % 4)}
	}
	return keys
}

// BenchmarkGraphAdmit prices one admission: a fresh node (table growth
// and list doubling amortised over graphs of an exploration's 14 248
// states) and a dedup hit, which must not allocate.
func BenchmarkGraphAdmit(b *testing.B) {
	keys := benchKeys(14248)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		g := NewGraph[benchKey, benchKey, Move](len(keys))
		for i := 0; i < b.N; i++ {
			j := i % len(keys)
			if j == 0 {
				g = NewGraph[benchKey, benchKey, Move](len(keys))
			}
			g.Admit(keys[j], keys[j], int32(j)-1, Move{})
		}
	})
	b.Run("hit", func(b *testing.B) {
		g := NewGraph[benchKey, benchKey, Move](len(keys))
		for j, k := range keys {
			g.Admit(k, k, int32(j)-1, Move{})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, fresh := g.Admit(keys[i%len(keys)], benchKey{}, 0, Move{}); fresh {
				b.Fatal("a filed key was admitted again")
			}
		}
	})
}
