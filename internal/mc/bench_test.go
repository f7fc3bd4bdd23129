package mc

import (
	"testing"

	"seqtx/internal/channel"
	"seqtx/internal/protocol/alphaproto"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
)

func benchExploreDepth(b *testing.B, depth int) {
	spec := alphaproto.MustNew(3)
	input := seq.FromInts(0, 1, 2)
	b.ReportAllocs()
	states := 0
	for i := 0; i < b.N; i++ {
		res, err := Explore(spec, input, channel.KindDel, ExploreConfig{MaxDepth: depth, MaxStates: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		states += res.States
	}
	b.ReportMetric(float64(states)/float64(b.N), "states/op")
}

// BenchmarkExploreDepth8, 12 and 20 price an exhaustive exploration of
// the tight protocol (m = 3) on a deletion channel, cut at that depth;
// depth 20 (14 248 states) is the mc_explore workload's exploration.
func BenchmarkExploreDepth8(b *testing.B)  { benchExploreDepth(b, 8) }
func BenchmarkExploreDepth12(b *testing.B) { benchExploreDepth(b, 12) }
func BenchmarkExploreDepth20(b *testing.B) { benchExploreDepth(b, 20) }

// BenchmarkRefute prices the product search that refutes the naive
// protocol on a duplicating channel.
func BenchmarkRefute(b *testing.B) {
	naive, err := registry.Protocol("naive", registry.Params{M: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, rerr := Refute(naive, seq.FromInts(0, 1), seq.FromInts(0, 1, 0),
			channel.KindDup, ExploreConfig{MaxDepth: 12, MaxStates: 1 << 15})
		if rerr != nil {
			b.Fatal(rerr)
		}
		if res.Violation == nil {
			b.Fatal("violation vanished")
		}
	}
}
