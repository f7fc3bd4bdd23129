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
	"seqtx/internal/trace"
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

// BenchmarkSystemStep prices the three outcomes of a tabulated step on
// a channel move, the memo's rows in a search's cost: a drop of one copy
// from a deletion half of the tight protocol (m = 3) holding up to
// chainLen copies, which steps only the half. hit: the step is
// memoised. miss-filed: it is not, but the half it leads to is filed (a
// search's common miss: 3 454 of 4 317 at mc_explore's configuration).
// miss-new: neither is, so the result is cloned and filed.
func BenchmarkSystemStep(b *testing.B) {
	const chainLen = 1024
	link, err := channel.NewLinkOfKind(channel.KindDel)
	if err != nil {
		b.Fatal(err)
	}
	w, err := sim.New(alphaproto.MustNew(3), seq.FromInts(0, 1, 2), link)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Apply(trace.Action{Kind: trace.ActTickS}); err != nil {
		b.Fatal(err)
	}
	// setup returns a fresh system and the state whose S→R half holds
	// chainLen copies of S's first message, with the drop of one copy.
	// filed files every shorter half too (by sends, so no drop is memoised);
	// warm also takes the chain of drops once.
	setup := func(filed, warm bool) (*sim.System, sim.State, sim.Move) {
		sys := sim.NewSystem(w)
		st := sys.Intern(w)
		var drop sim.Move
		for _, mv := range sys.Moves(nil, st) {
			if mv.Kind == trace.ActDrop && mv.Dir == channel.SToR {
				drop = mv
			}
		}
		full := channel.NewDel()
		for i := 0; i < chainLen; i++ {
			full.Send(sys.Action(drop).Msg)
		}
		if filed {
			h := sys.InternHalf(channel.NewDel())
			for i := 0; i < chainLen; i++ {
				h = sys.HalfSend(h, drop.Msg)
			}
		}
		st.SToR = sys.InternHalf(full)
		for cur, i := st, 0; warm && i < chainLen; i++ {
			next, err := sys.Step(cur, drop)
			if err != nil {
				b.Fatal(err)
			}
			cur = next.Next
		}
		return sys, st, drop
	}
	for _, c := range []struct {
		name        string
		filed, warm bool
	}{{"hit", true, true}, {"miss-filed", true, false}, {"miss-new", false, false}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var sys *sim.System
			var st sim.State
			var drop sim.Move
			for i := 0; i < b.N; i++ {
				if i%chainLen == 0 {
					b.StopTimer()
					sys, st, drop = setup(c.filed, c.warm)
					b.StartTimer()
				}
				next, err := sys.Step(st, drop)
				if err != nil {
					b.Fatal(err)
				}
				st = next.Next
			}
		})
	}
}
