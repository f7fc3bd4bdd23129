package mc

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/obs"
	"seqtx/internal/protocol"
	"seqtx/internal/protocol/alphaproto"
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
// deletion channel), cut at depth 12, on the sequential path. A successor
// by table lookup allocates nothing; what is left is building the tables
// (a few objects per local state, so the share falls as the space
// grows: 3.4 here, 1.1 at the benchmark's depth 20) and the growth of
// the node list and the visited set. Building a world per transition, as
// the explorers did, cost 27.7 with structural sharing and 64 without.
func TestExploreAllocBudget(t *testing.T) {
	const ceiling = 4.0
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

// TestResultsIndependentOfNumbering repeats each engine at several worker
// counts. Which id a local state gets depends on which worker met it
// first, so it varies from run to run; results, witness text and the
// dedup counters (hits + misses = transitions), which may only use ids
// for equality, must not. Small levels are expanded in-line whatever
// Workers says, so the test also checks that its fixtures are large
// enough for a second worker to have expanded nodes in some run.
func TestResultsIndependentOfNumbering(t *testing.T) {
	t.Parallel()
	naive2, err := registry.Protocol("naive", registry.Params{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]func(engine EngineConfig) (string, error){
		"explore": func(engine EngineConfig) (string, error) {
			res, err := Explore(naive2, seq.FromInts(0, 1, 0, 1), channel.KindDel, ExploreConfig{MaxDepth: 14, EngineConfig: engine})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d %d %v %v\n%s", res.States, res.Depth, res.Truncated, res.CompletedState, witnessString(res.Violation)), nil
		},
		"refute": func(engine EngineConfig) (string, error) {
			res, err := Refute(naive2, seq.FromInts(0, 1), seq.FromInts(0, 1, 0), channel.KindDel, ExploreConfig{MaxDepth: 10, EngineConfig: engine})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d %d %v\n%s", res.States, res.Depth, res.Truncated, productWitnessString(res.Violation)), nil
		},
		"stabilize": func(engine EngineConfig) (string, error) {
			res, err := CheckStabilize(alphaproto.MustNew(2), seq.FromInts(0, 1), channel.KindDel, StabilizeConfig{
				Seed: 3, Scrambles: 8, MaxStates: 1 << 12, MaxDepth: 10, EngineConfig: engine,
			})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%+v\n%s", *res, witnessString(res.Witness)), nil
		},
	}
	for scope, run := range runs {
		t.Run(scope, func(t *testing.T) {
			t.Parallel()
			want, byWorker1 := "", int64(0)
			for rep := 0; rep < 20; rep++ {
				for _, workers := range []int{1, 2, 4} {
					reg := obs.NewRegistry()
					got, err := run(EngineConfig{Workers: workers, Obs: reg})
					if err != nil {
						t.Fatal(err)
					}
					c := reg.Snapshot().Counters
					got += fmt.Sprintf("\ndedup hits %d misses %d", c["mc_"+scope+"_dedup_hits_total"], c["mc_"+scope+"_dedup_misses_total"])
					if want == "" {
						want = got
					} else if got != want {
						t.Fatalf("repetition %d, workers=%d:\ngot  %s\nwant %s", rep, workers, got, want)
					}
					byWorker1 += c[fmt.Sprintf(`mc_worker_expansions_total{scope=%q,worker="1"}`, scope)]
				}
			}
			if byWorker1 == 0 {
				t.Error("no second worker ever expanded a node: the fixture is too small to leave the in-line path")
			}
		})
	}
}

// badSender is a sender that, on its third tick, sends a message outside
// the alphabet it declares — the one way a step of a spec-built system
// can fail.
type badSender struct{ ticks int }

func (s *badSender) Step(ev protocol.Event) []msg.Msg {
	if ev.Kind == protocol.Tick {
		if s.ticks++; s.ticks == 3 {
			return []msg.Msg{"rogue"}
		}
	}
	return []msg.Msg{"ok"}
}
func (s *badSender) Alphabet() msg.Alphabet { return msg.MustNewAlphabet("ok") }
func (s *badSender) Done() bool             { return false }
func (s *badSender) Clone() protocol.Sender { cp := *s; return &cp }
func (s *badSender) Key() string            { return fmt.Sprint(s.ticks) }

type idleReceiver struct{}

func (idleReceiver) Step(protocol.Event) ([]msg.Msg, seq.Seq) { return nil, nil }
func (idleReceiver) Alphabet() msg.Alphabet                   { return msg.MustNewAlphabet("ack") }
func (r idleReceiver) Clone() protocol.Receiver               { return r }
func (idleReceiver) Key() string                              { return "idle" }

// TestFailedRunStillPublishesMetrics: an engine that stops on an error
// has still run, and says so — its run, state and dedup counters are
// flushed on every way out.
func TestFailedRunStillPublishesMetrics(t *testing.T) {
	t.Parallel()
	spec := protocol.Spec{
		Name:        "rogue",
		NewSender:   func(seq.Seq) (protocol.Sender, error) { return &badSender{}, nil },
		NewReceiver: func() (protocol.Receiver, error) { return idleReceiver{}, nil },
	}
	x := seq.FromInts(0, 1)
	for _, workers := range []int{1, 2} {
		engine := func(reg *obs.Registry) EngineConfig { return EngineConfig{Workers: workers, Obs: reg} }
		runs := map[string]func(reg *obs.Registry) error{
			"explore": func(reg *obs.Registry) error {
				_, err := Explore(spec, x, channel.KindDel, ExploreConfig{MaxDepth: 8, EngineConfig: engine(reg)})
				return err
			},
			"refute": func(reg *obs.Registry) error {
				_, err := Refute(spec, x, seq.FromInts(1), channel.KindDel, ExploreConfig{MaxDepth: 8, EngineConfig: engine(reg)})
				return err
			},
			"stabilize": func(reg *obs.Registry) error {
				_, err := CheckStabilize(spec, x, channel.KindDel, StabilizeConfig{MaxDepth: 8, Scrambles: 1, ChannelJunk: 1, EngineConfig: engine(reg)})
				return err
			},
		}
		for scope, run := range runs {
			reg := obs.NewRegistry()
			err := run(reg)
			if err == nil || !strings.Contains(err.Error(), `"rogue" outside M^S`) {
				t.Fatalf("%s workers=%d: error %v, want the out-of-alphabet send", scope, workers, err)
			}
			counters := reg.Snapshot().Counters
			if counters["mc_"+scope+"_runs_total"] != 1 || counters["mc_"+scope+"_states_total"] == 0 {
				t.Errorf("%s workers=%d: a failed run published %v", scope, workers, counters)
			}
		}
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
