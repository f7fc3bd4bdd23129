package sim

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// steps expands the integers from 0, each stepping to n+1 and n+2, so
// most nodes are reached twice.
func steps(g *Graph[int, int, int]) func(i int32) (bool, error) {
	return func(i int32) (bool, error) {
		n := g.Nodes[i]
		for _, d := range []int{1, 2} {
			g.Admit(n+d, n+d, i, d)
		}
		return false, nil
	}
}

func TestGraphLevels(t *testing.T) {
	g := NewGraph[int, int, int](100)
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
	g := NewGraph[int, int, int](4)
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
		g := NewGraph[int, int, int](100)
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
