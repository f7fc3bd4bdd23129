package sim_test

// World micro-benchmarks: the operations a search pays per transition
// when it does not go through a System's tables, and the memoised step
// that replaces them.

import (
	"testing"

	"seqtx/internal/channel"
	"seqtx/internal/protocol/alphaproto"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
)

// benchWorld drives the tight protocol a few steps in so the link and
// the receiver state are non-trivial (mid-run keys, not initial ones).
func benchWorld(b *testing.B) *sim.World {
	b.Helper()
	link, err := channel.NewLinkOfKind(channel.KindDel)
	if err != nil {
		b.Fatal(err)
	}
	w, err := sim.New(alphaproto.MustNew(3), seq.FromInts(0, 1, 2), link)
	if err != nil {
		b.Fatal(err)
	}
	adv := sim.NewRoundRobin()
	for i := 0; i < 12; i++ {
		if err := w.Apply(adv.Choose(w, w.Enabled())); err != nil {
			b.Fatal(err)
		}
	}
	return w
}

func BenchmarkWorldKey(b *testing.B) {
	w := benchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(w.Key()) == 0 {
			b.Fatal("empty key")
		}
	}
}

func BenchmarkWorldEncodeKey(b *testing.B) {
	w := benchWorld(b)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = w.EncodeKey(buf[:0])
		if len(buf) == 0 {
			b.Fatal("empty key")
		}
	}
}

func BenchmarkWorldClone(b *testing.B) {
	w := benchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w.Clone() == nil {
			b.Fatal("nil clone")
		}
	}
}

// BenchmarkWorldSuccessor is what the explorers pay per transition in
// place of BenchmarkWorldClone plus an Apply: a memoised step of the
// tabulated system, cycling through the enabled moves.
func BenchmarkWorldSuccessor(b *testing.B) {
	w := benchWorld(b)
	sys := sim.NewSystem(w)
	st := sys.Intern(w)
	moves := sys.Moves(nil, st)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Step(st, moves[i%len(moves)]); err != nil {
			b.Fatal(err)
		}
	}
}
