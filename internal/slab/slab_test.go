package slab

import (
	"sync"
	"testing"
	"unsafe"
)

// half stands for a protocol's sender or receiver struct.
type half struct {
	idx   int
	input []int
}

func TestSlab(t *testing.T) {
	t.Parallel()
	t.Run("zeroed", func(t *testing.T) {
		var halves Slab[half]
		var ints Slab[int]
		for i := 0; i < 3*slabMaxVals; i++ {
			h := halves.New()
			if h.idx != 0 || h.input != nil {
				t.Fatalf("New %d: %+v, want the zero value", i, *h)
			}
			h.idx, h.input = i+1, []int{i}
			v := ints.Make(i%5 + 1)
			for j := range v {
				if v[j] != 0 {
					t.Fatalf("Make %d: %v, want zeros", i, v)
				}
				v[j] = -1
			}
		}
	})
	t.Run("append-past-make", func(t *testing.T) {
		var ints Slab[int]
		a := ints.Make(3)
		b := ints.Make(3)
		if len(a) != 3 || cap(a) != 3 {
			t.Fatalf("Make(3): len %d cap %d, want 3 and 3", len(a), cap(a))
		}
		for i := range b {
			b[i] = 7
		}
		a = append(a, 99)
		a[0] = 1
		for i, v := range b {
			if v != 7 {
				t.Fatalf("an append past Make(3) wrote %d into its neighbour's slot %d", v, i)
			}
		}
		// A tape that starts empty with room for 3 grows the same way.
		w := ints.Make(3)[:0]
		n := ints.Make(3)
		w = append(w, 1, 2, 3, 4)
		if n[0] != 0 || w[3] != 4 {
			t.Fatalf("a [:0] window grew into its neighbour: %v then %v", w, n)
		}
	})
	t.Run("clone", func(t *testing.T) {
		var ints Slab[int]
		if got := ints.Clone(nil); got != nil {
			t.Fatalf("Clone(nil) = %#v, want nil", got)
		}
		if got := ints.Clone([]int{}); got == nil || len(got) != 0 {
			t.Fatalf("Clone(empty) = %#v, want an empty non-nil slice", got)
		}
		src := []int{1, 2, 3}
		dst := ints.Clone(src)
		if len(dst) != 3 || cap(dst) != 3 || dst[0] != 1 || dst[2] != 3 {
			t.Fatalf("Clone(%v) = %v (cap %d)", src, dst, cap(dst))
		}
		dst[1] = 20
		if src[1] != 2 || &dst[0] == &src[0] {
			t.Fatalf("the clone shares memory with its source: %v, %v", src, dst)
		}
	})
	t.Run("oversize", func(t *testing.T) {
		var ints Slab[int]
		limit := ints.limit()
		if want := slabMaxBytes / int(unsafe.Sizeof(0)); limit != want {
			t.Fatalf("limit = %d ints, want %d (16 KiB)", limit, want)
		}
		p := ints.Make(1)
		big := ints.Make(limit + 1)
		q := ints.Make(1)
		if len(big) != limit+1 || cap(big) != limit+1 {
			t.Fatalf("Make(%d): len %d cap %d", limit+1, len(big), cap(big))
		}
		if unsafe.Pointer(&q[0]) != unsafe.Add(unsafe.Pointer(&p[0]), unsafe.Sizeof(0)) {
			t.Fatal("an oversize request was carved from the chunk, or moved it on")
		}
		for i := range big {
			big[i] = 5
		}
		if p[0] != 0 || q[0] != 0 {
			t.Fatalf("filling the oversize slice reached the chunk: %v %v", p, q)
		}
		var halves Slab[half]
		if got, want := halves.limit(), max(slabMaxVals, slabMaxBytes/int(unsafe.Sizeof(half{}))); got != want {
			t.Fatalf("limit = %d halves, want %d", got, want)
		}
	})
	t.Run("amortized", func(t *testing.T) {
		var halves Slab[half]
		halves.New() // the first chunk
		// Doubling from 8 reaches the limit in a handful of chunks, then
		// every limit-th New allocates.
		n := 4 * halves.limit()
		if a := testing.AllocsPerRun(1, func() {
			for i := 0; i < n; i++ {
				halves.New()
			}
		}); a > 12 {
			t.Fatalf("%d News allocated %v times, want at most 12", n, a)
		}
	})
	t.Run("concurrent-new", func(t *testing.T) {
		var halves Slab[half]
		const workers, each = 8, 500
		got := make([][]*half, workers)
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					h := halves.New()
					h.idx = w*each + i
					got[w] = append(got[w], h)
				}
			}()
		}
		wg.Wait()
		seen := map[*half]bool{}
		for w := range got {
			for i, h := range got[w] {
				if seen[h] {
					t.Fatalf("New handed out %p twice", h)
				}
				seen[h] = true
				if h.idx != w*each+i {
					t.Fatalf("half %d/%d reads %d: another New shares it", w, i, h.idx)
				}
			}
		}
	})
}
