package channel

import (
	"reflect"
	"testing"
)

// foreign is a half of a type Store does not know, as a fault wrapper
// from another package is.
type foreign struct{ Half }

func (f foreign) Clone() Half { return foreign{f.Half.Clone()} }

// TestStoreClone: a Store's copy of each concrete half is exact and
// independent, and its slices end where it does, so a copy written past
// its length never reaches the copy carved after it. The kinds the store
// carves (del and reorder) allocate per chunk; a half of a type the
// store does not carve is copied by its own Clone. Not parallel:
// AllocsPerRun counts the whole process's allocations.
func TestStoreClone(t *testing.T) {
	for _, kind := range fuzzKinds {
		var s Store
		for _, src := range []Half{sibling(kind), s.Clone(sibling(kind))} {
			if cp := s.Clone(src); reflect.TypeOf(cp) != reflect.TypeOf(src) {
				t.Fatalf("%s: Clone returned a %T, want a %T", kind, cp, src)
			} else if err := sameHalf(cp, src); err != nil {
				t.Fatalf("%s: Clone: %v", kind, err)
			}
		}

		// Short copies, so that neighbours share a chunk.
		src, _ := New(kind)
		src.Send("e")
		src.Send("f")
		before := src.Key()
		copies := make([]Half, 8)
		for i := range copies {
			copies[i] = s.Clone(src)
		}
		for i := 0; i < len(copies); i += 2 {
			write(copies[i], src)
			if src.Key() != before {
				t.Fatalf("%s: writing a copy changed its source to %q", kind, src.Key())
			}
			if got := copies[i+1].Key(); got != before {
				t.Fatalf("%s: writing copy %d reached the next one: %q, want %q", kind, i, got, before)
			}
		}
		write(src, src.Clone())
		if got := copies[1].Key(); got != before {
			t.Errorf("%s: writing the source changed its copy to %q", kind, got)
		}

		if kind != KindDel && kind != KindReorder {
			continue
		}
		src = sibling(kind)
		if a := testing.AllocsPerRun(1, func() {
			for i := 0; i < 1024; i++ {
				s.Clone(src)
			}
		}); a > 32 {
			t.Errorf("%s: 1 024 copies allocate %.0f objects, want at most 32", kind, a)
		}
	}

	var s Store
	src := foreign{NewDel()}
	src.Send("a")
	cp := s.Clone(src)
	if _, ok := cp.(foreign); !ok || cp.Key() != src.Key() {
		t.Fatalf("a foreign half's copy is a %T keyed %q, want a foreign keyed %q", cp, cp.Key(), src.Key())
	}
	cp.Send("b")
	if src.Key() == cp.Key() {
		t.Errorf("a foreign half's copy shares its state: %q", src.Key())
	}
}

// write writes to h in place where what h holds is shared with other,
// re-sending and dropping each message other holds, and then past h's
// length.
func write(h, other Half) {
	for i := 0; ; i++ {
		m, ok := other.Support(i)
		if !ok {
			break
		}
		h.Send(m)
		_ = h.Drop(m)
	}
	scribble(h)
}

// BenchmarkStoreClone copies a half of each kind into a Store, as a
// model checker files a new half: del and reorder are carved, the other
// kinds fall back to their own Clone.
func BenchmarkStoreClone(b *testing.B) {
	for _, kind := range fuzzKinds {
		b.Run(kind.String(), func(b *testing.B) {
			var s Store
			src := sibling(kind)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Clone(src)
			}
		})
	}
}
