package mc

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"seqtx/internal/channel"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
)

// engineKinds is every channel model, fixed order.
var engineKinds = []channel.Kind{
	channel.KindDup, channel.KindDel, channel.KindReorder,
	channel.KindFIFO, channel.KindDupDel,
}

// engineWorkerCounts are the pool sizes the equivalence tests compare
// against the sequential engine.
func engineWorkerCounts() []int {
	counts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

func witnessString(w *Witness) string {
	if w == nil {
		return "<none>"
	}
	return w.String()
}

func productWitnessString(w *ProductWitness) string {
	if w == nil {
		return "<none>"
	}
	return w.String()
}

// TestExploreWorkerEquivalence checks the tentpole determinism contract:
// for every protocol in the zoo, on every channel kind, the parallel
// engine reports byte-identical results to the sequential one — same
// state count, depth, truncation, and the same first violation.
func TestExploreWorkerEquivalence(t *testing.T) {
	t.Parallel()
	input := seq.FromInts(0, 1)
	params := registry.Params{M: 2, Timeout: 3, Window: 2}
	for _, proto := range registry.ProtocolNames() {
		spec, err := registry.Protocol(proto, params)
		if err != nil {
			t.Fatalf("building %s: %v", proto, err)
		}
		for _, kind := range engineKinds {
			t.Run(fmt.Sprintf("%s/%s", proto, kind), func(t *testing.T) {
				t.Parallel()
				var base *ExploreResult
				for _, workers := range engineWorkerCounts() {
					cfg := ExploreConfig{
						MaxDepth: 6, MaxStates: 4000,
						EngineConfig: EngineConfig{Workers: workers},
					}
					res, err := Explore(spec, input, kind, cfg)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					if base == nil {
						base = res
						continue
					}
					if res.States != base.States || res.Depth != base.Depth ||
						res.Truncated != base.Truncated || res.CompletedState != base.CompletedState {
						t.Fatalf("workers=%d diverged: got {States:%d Depth:%d Truncated:%v Completed:%v}, sequential {States:%d Depth:%d Truncated:%v Completed:%v}",
							workers, res.States, res.Depth, res.Truncated, res.CompletedState,
							base.States, base.Depth, base.Truncated, base.CompletedState)
					}
					if got, want := witnessString(res.Violation), witnessString(base.Violation); got != want {
						t.Fatalf("workers=%d violation diverged:\ngot  %s\nwant %s", workers, got, want)
					}
				}
			})
		}
	}
}

// TestRefuteWorkerEquivalence does the same for the product engine, on a
// case with a violation (naive under duplication) and one without (the
// tight protocol).
func TestRefuteWorkerEquivalence(t *testing.T) {
	t.Parallel()
	cases := []struct {
		proto  string
		x1, x2 seq.Seq
	}{
		{"naive", seq.FromInts(0, 1), seq.FromInts(0, 1, 0)},
		{"alpha", seq.FromInts(0, 1), seq.FromInts(0)},
	}
	for _, tc := range cases {
		spec, err := registry.Protocol(tc.proto, registry.Params{M: 2, Timeout: 3, Window: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range engineKinds {
			t.Run(fmt.Sprintf("%s/%s", tc.proto, kind), func(t *testing.T) {
				t.Parallel()
				var base *ProductResult
				for _, workers := range engineWorkerCounts() {
					cfg := ExploreConfig{
						MaxDepth: 6, MaxStates: 4000,
						EngineConfig: EngineConfig{Workers: workers},
					}
					res, err := Refute(spec, tc.x1, tc.x2, kind, cfg)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					if base == nil {
						base = res
						continue
					}
					if res.States != base.States || res.Depth != base.Depth || res.Truncated != base.Truncated {
						t.Fatalf("workers=%d diverged: got {States:%d Depth:%d Truncated:%v}, sequential {States:%d Depth:%d Truncated:%v}",
							workers, res.States, res.Depth, res.Truncated,
							base.States, base.Depth, base.Truncated)
					}
					if got, want := productWitnessString(res.Violation), productWitnessString(base.Violation); got != want {
						t.Fatalf("workers=%d violation diverged:\ngot  %s\nwant %s", workers, got, want)
					}
				}
			})
		}
	}
}

// TestBoundedWorkerEquivalence compares full boundedness reports across
// worker counts, from both fault-free and faulty sample runs.
func TestBoundedWorkerEquivalence(t *testing.T) {
	t.Parallel()
	spec, err := registry.Protocol("alpha", registry.Params{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, faulty := range []bool{false, true} {
		faulty := faulty
		t.Run(fmt.Sprintf("faulty=%v", faulty), func(t *testing.T) {
			t.Parallel()
			var base *BoundedReport
			for _, workers := range engineWorkerCounts() {
				cfg := BoundedConfig{
					Budget: 8, MaxStates: 4000,
					EngineConfig: EngineConfig{Workers: workers},
				}
				if faulty {
					cfg.Sampler = sim.NewBudgetDropper(1, 1)
				}
				rep, err := CheckBounded(spec, seq.FromInts(0, 1), channel.KindDel, cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if base == nil {
					base = rep
					continue
				}
				if rep.Samples != base.Samples || rep.MaxRecovery != base.MaxRecovery || rep.Unrecovered != base.Unrecovered {
					t.Fatalf("workers=%d diverged: got %+v, sequential %+v", workers, rep, base)
				}
				for pos, want := range base.PerPosition {
					if got, ok := rep.PerPosition[pos]; !ok || got != want {
						t.Fatalf("workers=%d PerPosition[%d] = %d, want %d", workers, pos, got, want)
					}
				}
			}
		})
	}
}

// TestExploreAllocBudget gates the explorer's allocations per visited
// state the way TestStepSteadyStateZeroAlloc gates Step: exactly, not by
// a timing. The system is the benchmark's (the tight protocol on a
// deletion channel), cut at depth 12, on the sequential path. The ceiling
// sits about 15% above the measured 27.7; deep-cloning a world per
// transition, which Successor replaced, costs 64.
func TestExploreAllocBudget(t *testing.T) {
	const ceiling = 32.0
	spec, err := registry.Protocol("alpha", registry.Params{M: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ExploreConfig{MaxDepth: 12, EngineConfig: EngineConfig{Workers: 1}}
	states := 0
	allocs := testing.AllocsPerRun(5, func() {
		res, err := Explore(spec, seq.FromInts(0, 1, 2), channel.KindDel, cfg)
		if err != nil {
			t.Fatal(err)
		}
		states = res.States
	})
	if perState := allocs / float64(states); perState > ceiling {
		t.Errorf("Explore allocates %.1f objects per state (%.0f over %d states), budget %.0f",
			perState, allocs, states, ceiling)
	} else {
		t.Logf("%.1f allocations per state (%.0f over %d states)", perState, allocs, states)
	}
}

// FuzzEncodeKeyMatchesKey drives random walks through random systems and
// checks the engine's core keying contract: two reached states have equal
// EncodeKey bytes exactly when their Key strings are equal, so the binary
// fast path partitions the state space exactly like the debug view.
func FuzzEncodeKeyMatchesKey(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(0), uint8(0))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint8(4), uint8(3))
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 1, 2, 2}, uint8(7), uint8(1))
	protos := registry.ProtocolNames()
	f.Fuzz(func(t *testing.T, steps []byte, protoIdx, kindIdx uint8) {
		if len(steps) > 48 {
			steps = steps[:48]
		}
		spec, err := registry.Protocol(protos[int(protoIdx)%len(protos)], registry.Params{M: 2, Timeout: 2, Window: 2})
		if err != nil {
			t.Fatal(err)
		}
		kind := engineKinds[int(kindIdx)%len(engineKinds)]
		link, err := channel.NewLinkOfKind(kind)
		if err != nil {
			t.Fatal(err)
		}
		w, err := sim.New(spec, seq.FromInts(0, 1), link)
		if err != nil {
			t.Fatal(err)
		}
		type rec struct {
			skey string
			bkey []byte
		}
		states := []rec{{w.Key(), w.EncodeKey(nil)}}
		for _, b := range steps {
			acts := w.Enabled()
			if err := w.Apply(acts[int(b)%len(acts)]); err != nil {
				t.Fatalf("applying enabled action: %v", err)
			}
			states = append(states, rec{w.Key(), w.EncodeKey(nil)})
		}
		for i := range states {
			for j := i + 1; j < len(states); j++ {
				sEq := states[i].skey == states[j].skey
				bEq := bytes.Equal(states[i].bkey, states[j].bkey)
				if sEq != bEq {
					t.Errorf("key partition mismatch between steps %d and %d:\nKey equal %v (%q vs %q)\nEncodeKey equal %v (%x vs %x)",
						i, j, sEq, states[i].skey, states[j].skey, bEq, states[i].bkey, states[j].bkey)
				}
			}
		}
	})
}
