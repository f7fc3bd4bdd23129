package mc

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"seqtx/internal/channel"
	"seqtx/internal/protocol"
	"seqtx/internal/protocol/afwz"
	"seqtx/internal/protocol/alphaproto"
	"seqtx/internal/protocol/hybrid"
	"seqtx/internal/protocol/naive"
	"seqtx/internal/protocol/stab"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/statespace_golden.json")

var goldenPath = filepath.Join("testdata", "statespace_golden.json")

// goldenKinds is engineKinds plus the bounded channel: every model whose
// state representation a refactor could touch.
var goldenKinds = append(append([]channel.Kind(nil), engineKinds...), channel.KindBounded)

// TestStateSpaceGolden pins the explored state spaces to a committed
// table: state counts, depths, truncation and verdicts for the zoo ×
// kinds cells of the equivalence tests (each run twice from scratch), plus
// the Refute, CheckBounded, CheckStabilize and CheckProgress fixtures. A
// change to how worlds, halves or processes are represented or keyed
// must reproduce it without -update-golden: a merged or split state
// shows up as a changed count.
func TestStateSpaceGolden(t *testing.T) {
	t.Parallel()
	var (
		mu  sync.Mutex
		got = make(map[string]string)
	)
	t.Run("cells", func(t *testing.T) {
		// cell runs one golden row twice from scratch and records the
		// (identical) verdict line.
		cell := func(name string, run func() (string, error)) {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				line := runTwice(t, run)
				mu.Lock()
				got[name] = line
				mu.Unlock()
			})
		}
		exploreCell := func(name string, spec protocol.Spec, input seq.Seq, kind channel.Kind, depth, states int) {
			cell(name, func() (string, error) {
				res, err := Explore(spec, input, kind, ExploreConfig{MaxDepth: depth, MaxStates: states})
				if err != nil {
					return "", err
				}
				return exploreLine(res), nil
			})
		}
		params := registry.Params{M: 2, Timeout: 3, Window: 2}
		for _, proto := range registry.ProtocolNames() {
			spec, err := registry.Protocol(proto, params)
			if err != nil {
				t.Fatalf("building %s: %v", proto, err)
			}
			for _, kind := range goldenKinds {
				exploreCell(fmt.Sprintf("explore/%s/%s", proto, kind), spec, seq.FromInts(0, 1), kind, 6, 4000)
			}
		}
		// The benchmark's system, cut shallower: the tight protocol on a
		// deletion channel, where the in-flight multiset grows.
		for _, kind := range goldenKinds {
			exploreCell(fmt.Sprintf("explore/alpha3/%s", kind), alphaproto.MustNew(3), seq.FromInts(0, 1, 2), kind, 12, 1<<20)
		}

		refutes := []struct {
			proto  string
			x1, x2 seq.Seq
		}{
			{"naive", seq.FromInts(0, 1), seq.FromInts(0, 1, 0)},
			{"alpha", seq.FromInts(0, 1), seq.FromInts(0)},
		}
		for _, tc := range refutes {
			spec, err := registry.Protocol(tc.proto, params)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range goldenKinds {
				tc, kind := tc, kind
				cell(fmt.Sprintf("refute/%s/%s", tc.proto, kind), func() (string, error) {
					res, err := Refute(spec, tc.x1, tc.x2, kind, ExploreConfig{MaxDepth: 6, MaxStates: 4000})
					if err != nil {
						return "", err
					}
					return refuteLine(res), nil
				})
			}
		}

		boundeds := []struct {
			name  string
			spec  protocol.Spec
			input seq.Seq
			kind  channel.Kind
			cfg   BoundedConfig
			drop  bool // sample from a faulty (budget-dropping) run
		}{
			{"alpha/del", alphaproto.MustNew(2), seq.FromInts(0, 1), channel.KindDel, BoundedConfig{Budget: 8, MaxStates: 4000}, false},
			{"alpha/del/faulty", alphaproto.MustNew(2), seq.FromInts(0, 1), channel.KindDel, BoundedConfig{Budget: 8, MaxStates: 4000}, true},
			{"alpha/bounded", alphaproto.MustNew(2), seq.FromInts(0, 1), channel.KindBounded, BoundedConfig{Budget: 8, MaxStates: 4000}, false},
			{"alpha/dup", alphaproto.MustNew(2), seq.FromInts(0, 1), channel.KindDup, BoundedConfig{Budget: 8, MaxStates: 4000}, false},
			{"afwz/del/weak", afwz.MustNew(2), seq.FromInts(0, 1, 0), channel.KindDel, BoundedConfig{Budget: 40, OldMessagesAllowed: true}, false},
			{"afwz/del/strict", afwz.MustNew(2), seq.FromInts(0, 1, 0), channel.KindDel, BoundedConfig{Budget: 40}, false},
			{"hybrid/del/weak", hybrid.MustNew(2, 4), seq.FromInts(0, 1, 0, 1), channel.KindDel, BoundedConfig{Budget: 60, OldMessagesAllowed: true}, false},
		}
		for _, tc := range boundeds {
			tc := tc
			cell("bounded/"+tc.name, func() (string, error) {
				cfg := tc.cfg
				if tc.drop {
					cfg.Sampler = sim.NewBudgetDropper(1, 1)
				}
				rep, err := CheckBounded(tc.spec, tc.input, tc.kind, cfg)
				if err != nil {
					return "", err
				}
				return boundedLine(rep), nil
			})
		}

		stabs := []struct {
			name  string
			spec  protocol.Spec
			input seq.Seq
			kind  channel.Kind
			cfg   StabilizeConfig
		}{
			{"stab2/bounded", mustSpec(stab.New(2, channel.DefaultBoundedCap)), seq.FromInts(1, 0), channel.KindBounded, StabilizeConfig{Seed: 7, Scrambles: 8}},
			{"stab3/bounded", mustSpec(stab.New(3, channel.DefaultBoundedCap)), seq.FromInts(2, 0, 1), channel.KindBounded, StabilizeConfig{Seed: 1}},
			{"stab3/dup", mustSpec(stab.New(3, channel.DefaultBoundedCap)), seq.FromInts(2, 0, 1), channel.KindDup, StabilizeConfig{Seed: 1, Scrambles: 8, MaxStates: 1 << 16, MaxDepth: 48}},
			{"naive/dup", mustSpec(naive.NewWriteEveryData(2)), seq.FromInts(0, 1), channel.KindDup, StabilizeConfig{Seed: 3, Scrambles: 8, MaxStates: 1 << 16, MaxDepth: 48}},
			{"alpha/del", alphaproto.MustNew(2), seq.FromInts(0, 1), channel.KindDel, StabilizeConfig{Seed: 3, Scrambles: 8, MaxStates: 1 << 12, MaxDepth: 10}},
		}
		for _, tc := range stabs {
			tc := tc
			cell("stabilize/"+tc.name, func() (string, error) {
				res, err := CheckStabilize(tc.spec, tc.input, tc.kind, tc.cfg)
				if err != nil {
					return "", err
				}
				return stabilizeLine(res), nil
			})
		}

		progresses := []struct {
			name  string
			spec  protocol.Spec
			input seq.Seq
			kind  channel.Kind
			cfg   ExploreConfig
		}{
			{"alpha/dup", alphaproto.MustNew(2), seq.FromInts(0, 1), channel.KindDup, ExploreConfig{MaxDepth: 64, MaxStates: 1 << 18}},
			{"alpha/del", alphaproto.MustNew(2), seq.FromInts(0, 1), channel.KindDel, ExploreConfig{MaxDepth: 8, MaxStates: 1 << 14}},
			{"hybrid/del", hybrid.MustNew(2, 1), seq.FromInts(0, 1, 0, 1), channel.KindDel, ExploreConfig{MaxDepth: 10, MaxStates: 1 << 14}},
			{"alpha/bounded", alphaproto.MustNew(2), seq.FromInts(0, 1), channel.KindBounded, ExploreConfig{MaxDepth: 64, MaxStates: 1 << 16}},
		}
		for _, tc := range progresses {
			tc := tc
			cell("progress/"+tc.name, func() (string, error) {
				res, err := CheckProgress(tc.spec, tc.input, tc.kind, tc.cfg)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("states=%d completed=%d doomed=%d truncated=%v",
					res.States, res.Completed, res.Doomed, res.Truncated), nil
			})
		}
	})
	if t.Failed() {
		return
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readGolden(t)
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("golden cell %s no longer produced", name)
		} else if g != w {
			t.Errorf("%s drifted from the golden table (regenerate with -update-golden only if the state space is meant to change):\ngot  %s\nwant %s", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("cell %s missing from the golden table (regenerate with -update-golden)", name)
		}
	}
}

// readGolden loads the committed table.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("golden file does not unmarshal: %v", err)
	}
	return want
}

// The golden table's verdict lines, one renderer per engine.

func exploreLine(res *ExploreResult) string {
	return fmt.Sprintf("states=%d depth=%d truncated=%v completed=%v violation=%s",
		res.States, res.Depth, res.Truncated, res.CompletedState, witnessLen(res.Violation))
}

func refuteLine(res *ProductResult) string {
	v := "none"
	if res.Violation != nil {
		v = fmt.Sprintf("%d-steps-on-%s", len(res.Violation.Actions), res.Violation.ViolatedInput)
	}
	return fmt.Sprintf("states=%d depth=%d truncated=%v violation=%s", res.States, res.Depth, res.Truncated, v)
}

func boundedLine(rep *BoundedReport) string {
	pos := make([]int, 0, len(rep.PerPosition))
	for p := range rep.PerPosition {
		pos = append(pos, p)
	}
	sort.Ints(pos)
	per := ""
	for _, p := range pos {
		per += fmt.Sprintf(" %d:%d", p, rep.PerPosition[p])
	}
	return fmt.Sprintf("samples=%d maxRecovery=%d unrecovered=%d perPosition=[%s ]",
		rep.Samples, rep.MaxRecovery, rep.Unrecovered, per)
}

func stabilizeLine(res *StabilizeResult) string {
	return fmt.Sprintf("roots=%d states=%d depth=%d truncated=%v badWrites=%d lastBadDepth=%d refuted=%v cycle=%d convergedRoots=%d",
		res.Roots, res.States, res.Depth, res.Truncated, res.BadWrites, res.LastBadDepth,
		res.Refuted, res.WitnessCycleLen, res.ConvergedRoots)
}

func mustSpec(spec protocol.Spec, err error) protocol.Spec {
	if err != nil {
		panic(err)
	}
	return spec
}

func witnessLen(w *Witness) string {
	if w == nil {
		return "none"
	}
	return fmt.Sprintf("%d-steps", len(w.Actions))
}
