package seqtx_test

// Model-checker micro-benchmarks: the state-space engine's hot path
// (world cloning, tabulated successors, canonical state keys, exhaustive
// exploration, product refutation). BENCH_mc.json records the
// baseline/after comparison of the PR that built the (since deleted)
// in-level worker pool.

import (
	"testing"

	"seqtx"
	"seqtx/internal/channel"
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
	w, err := sim.New(seqtx.TightProtocol(3), seqtx.Sequence(0, 1, 2), link)
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

func benchExploreDepth(b *testing.B, depth int) {
	spec := seqtx.TightProtocol(3)
	input := seqtx.Sequence(0, 1, 2)
	b.ReportAllocs()
	states := 0
	for i := 0; i < b.N; i++ {
		res, err := seqtx.Explore(spec, input, seqtx.ChannelDel,
			seqtx.ExploreConfig{MaxDepth: depth, MaxStates: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		states += res.States
	}
	b.ReportMetric(float64(states)/float64(b.N), "states/op")
}

func BenchmarkExploreDepth8(b *testing.B)  { benchExploreDepth(b, 8) }
func BenchmarkExploreDepth12(b *testing.B) { benchExploreDepth(b, 12) }

func BenchmarkRefute(b *testing.B) {
	naive, err := seqtx.NaiveProtocol(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, rerr := seqtx.RefuteSafety(naive, seqtx.Sequence(0, 1), seqtx.Sequence(0, 1, 0),
			seqtx.ChannelDup, seqtx.ExploreConfig{MaxDepth: 12, MaxStates: 1 << 15})
		if rerr != nil {
			b.Fatal(rerr)
		}
		if res.Violation == nil {
			b.Fatal("violation vanished")
		}
	}
}
