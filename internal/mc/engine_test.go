package mc

import (
	"bytes"
	"fmt"
	"math/rand"
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
	"seqtx/internal/trace"
)

// engineKinds is every channel model, fixed order.
var engineKinds = []channel.Kind{
	channel.KindDup, channel.KindDel, channel.KindReorder,
	channel.KindFIFO, channel.KindDupDel,
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

// runTwice runs a check twice from scratch — a fresh System, fresh ids —
// and returns the one rendering both runs must produce.
func runTwice(t *testing.T, run func() (string, error)) string {
	t.Helper()
	first, err := run()
	if err != nil {
		t.Fatal(err)
	}
	again, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatalf("two runs diverged:\nfirst %s\nagain %s", first, again)
	}
	return first
}

// agreeTwice is runTwice for a check the golden table may have a cell
// for: the rendering's first line must then be that cell.
func agreeTwice(t *testing.T, cell string, run func() (string, error)) {
	t.Helper()
	line, _, _ := strings.Cut(runTwice(t, run), "\n")
	if want, ok := readGolden(t)[cell]; ok && !*updateGolden && line != want {
		t.Errorf("%s: got %s, the golden table has %s", cell, line, want)
	}
}

// TestExploreWorkerEquivalence checks the determinism contract: for every
// protocol in the zoo, on every channel kind, two explorations report
// identical results — same state count, depth, truncation, and the same
// first violation, action for action. (The *Worker* test names predate
// the removal of the in-level worker pool; test ids are kept.)
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
				agreeTwice(t, fmt.Sprintf("explore/%s/%s", proto, kind), func() (string, error) {
					res, err := Explore(spec, input, kind, ExploreConfig{MaxDepth: 6, MaxStates: 4000})
					if err != nil {
						return "", err
					}
					return exploreLine(res) + "\n" + witnessString(res.Violation), nil
				})
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
				agreeTwice(t, fmt.Sprintf("refute/%s/%s", tc.proto, kind), func() (string, error) {
					res, err := Refute(spec, tc.x1, tc.x2, kind, ExploreConfig{MaxDepth: 6, MaxStates: 4000})
					if err != nil {
						return "", err
					}
					return refuteLine(res) + "\n" + productWitnessString(res.Violation), nil
				})
			})
		}
	}
}

// TestBoundedWorkerEquivalence compares full boundedness reports of two
// checks, from both fault-free and faulty sample runs.
func TestBoundedWorkerEquivalence(t *testing.T) {
	t.Parallel()
	spec, err := registry.Protocol("alpha", registry.Params{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	for faulty, cell := range map[bool]string{false: "bounded/alpha/del", true: "bounded/alpha/del/faulty"} {
		t.Run(fmt.Sprintf("faulty=%v", faulty), func(t *testing.T) {
			t.Parallel()
			agreeTwice(t, cell, func() (string, error) {
				cfg := BoundedConfig{Budget: 8, MaxStates: 4000}
				if faulty {
					cfg.Sampler = sim.NewBudgetDropper(1, 1)
				}
				rep, err := CheckBounded(spec, seq.FromInts(0, 1), channel.KindDel, cfg)
				if err != nil {
					return "", err
				}
				return boundedLine(rep), nil
			})
		})
	}
}

// TestExploreAllocBudget gates the explorer's allocations per visited
// state the way TestStepSteadyStateZeroAlloc gates Step: exactly, not by
// a timing. The system is the benchmark's (the tight protocol on a
// deletion channel), cut at depth 12. A successor
// by table lookup allocates nothing; what is left is building the tables
// (carved from the System's chunks, so the share falls as the space
// grows: 0.4 here, 0.02 at the benchmark's depth 20) and the growth of
// the node list and the visited set. Building a world per transition, as
// the explorers did, cost 27.7 with structural sharing and 64 without.
func TestExploreAllocBudget(t *testing.T) {
	const ceiling = 4.0
	spec, err := registry.Protocol("alpha", registry.Params{M: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ExploreConfig{MaxDepth: 12}
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

// TestExploreAllocs pins the allocations of one exploration of the
// benchmark's system (mc_explore: the tight protocol, m = 3, on a
// deletion channel, cut at depth 20) as a count. Explore starts no
// goroutine, so the count is the exploration's own, but for the few a
// garbage collection during the run adds (316 with GOGC=off). A memo
// miss on a half copies only a result that is new, and it carves that
// half, its moves, its key and every new memo row from the System's
// chunks; the ceiling is under a seventh of the 4 445 an exploration
// makes when each of those is an allocation of its own. The test takes
// about 50 ms: four explorations, with the warm-up.
func TestExploreAllocs(t *testing.T) {
	const (
		ceiling    = 600
		wantStates = 14248
	)
	spec, err := registry.Protocol("alpha", registry.Params{M: 3})
	if err != nil {
		t.Fatal(err)
	}
	states := 0
	allocs := testing.AllocsPerRun(3, func() {
		res, err := Explore(spec, seq.FromInts(0, 1, 2), channel.KindDel, ExploreConfig{MaxDepth: 20})
		if err != nil {
			t.Fatal(err)
		}
		states = res.States
	})
	if states != wantStates {
		t.Fatalf("explored %d states, want %d", states, wantStates)
	}
	if allocs > ceiling {
		t.Errorf("an exploration allocates %.0f objects, budget %d", allocs, ceiling)
	} else {
		t.Logf("%.0f allocations over %d states", allocs, states)
	}
}

// warmSystem returns the system of w after a seeded random walk from it:
// a fresh one's tables filed in another order, so the states a later
// search meets get other ids. Seed 0 is no walk — the fresh system the
// public entry points search in.
func warmSystem(t *testing.T, w *sim.World, seed int64) *sim.System {
	t.Helper()
	sys := sim.NewSystem(w)
	if seed == 0 {
		return sys
	}
	rng := rand.New(rand.NewSource(seed))
	st, moves := sys.Intern(w), []sim.Move(nil)
	for step := 0; step < 200; step++ {
		moves = sys.Moves(moves[:0], st)
		next, err := sys.Step(st, moves[rng.Intn(len(moves))])
		if err != nil {
			t.Fatal(err)
		}
		st = next.Next
	}
	return sys
}

// numbering names the ids sys has given the states of a fixed walk from w.
func numbering(t *testing.T, sys *sim.System, w *sim.World) string {
	t.Helper()
	w, adv := w.Clone(), sim.NewRoundRobin()
	var ids []sim.State
	for step := 0; step < 8; step++ {
		if err := w.Apply(adv.Choose(w, w.Enabled())); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sys.Intern(w))
	}
	return fmt.Sprint(ids)
}

// TestResultsIndependentOfNumbering runs each engine on a fresh system
// and on systems pre-warmed by differently seeded walks (from the second
// input first, for the product). Which id a local state gets depends on
// what was filed before it, so it differs from system to system; results,
// witness text and the dedup counters (hits + misses = transitions), which
// may only use ids for equality, must not. The test also checks that the
// warm-ups did renumber: the states of a fixed walk got other ids.
func TestResultsIndependentOfNumbering(t *testing.T) {
	t.Parallel()
	naive2, err := registry.Protocol("naive", registry.Params{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	world := func(t *testing.T, spec protocol.Spec, x seq.Seq) *sim.World {
		link, err := channel.NewLinkOfKind(channel.KindDel)
		if err != nil {
			t.Fatal(err)
		}
		w, err := sim.New(spec, x, link)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	// Each run searches in the system warmed by seed and returns its
	// numbering and the rendered result, its counters published in reg.
	runs := map[string]func(t *testing.T, seed int64, reg *obs.Registry) (ids, got string, err error){
		"explore": func(t *testing.T, seed int64, reg *obs.Registry) (string, string, error) {
			w := world(t, naive2, seq.FromInts(0, 1, 0, 1))
			sys := warmSystem(t, w, seed)
			res, err := explore(sys, w, ExploreConfig{MaxDepth: 14, MaxStates: 1 << 20, Obs: reg})
			if err != nil {
				return "", "", err
			}
			return numbering(t, sys, w), exploreLine(res) + "\n" + witnessString(res.Violation), nil
		},
		"refute": func(t *testing.T, seed int64, reg *obs.Registry) (string, string, error) {
			w1, w2 := world(t, naive2, seq.FromInts(0, 1)), world(t, naive2, seq.FromInts(0, 1, 0))
			sys := warmSystem(t, w2, seed)
			res, err := refute(sys, w1, w2, ExploreConfig{MaxDepth: 10, MaxStates: 1 << 20, Obs: reg})
			if err != nil {
				return "", "", err
			}
			return numbering(t, sys, w1), refuteLine(res) + "\n" + productWitnessString(res.Violation), nil
		},
		"stabilize": func(t *testing.T, seed int64, reg *obs.Registry) (string, string, error) {
			cfg := StabilizeConfig{Seed: 3, Scrambles: 8, MaxStates: 1 << 12, MaxDepth: 10, Obs: reg}
			cfg.normalize()
			roots, lanes, err := corruptedRoots(alphaproto.MustNew(2), seq.FromInts(0, 1), channel.KindDel, cfg)
			if err != nil {
				return "", "", err
			}
			sys := warmSystem(t, roots[len(roots)-1], seed)
			res, err := stabilize(sys, roots, lanes, cfg)
			if err != nil {
				return "", "", err
			}
			return numbering(t, sys, roots[0]), fmt.Sprintf("%+v\n%s", *res, witnessString(res.Witness)), nil
		},
		"recovery": func(t *testing.T, seed int64, reg *obs.Registry) (string, string, error) {
			cfg := BoundedConfig{Budget: 8, MaxStates: 4000, Sampler: sim.NewBudgetDropper(1, 1), Obs: reg}
			if err := cfg.normalize(); err != nil {
				return "", "", err
			}
			points, err := samplePoints(naive2, seq.FromInts(0, 1, 0, 1), channel.KindDel, cfg)
			if err != nil {
				return "", "", err
			}
			sys := warmSystem(t, points[0], seed)
			var steps []int
			for _, p := range points {
				n, err := recoverySearch(sys, p, cfg)
				if err != nil {
					return "", "", err
				}
				steps = append(steps, n)
			}
			return numbering(t, sys, points[0]), fmt.Sprint(steps), nil
		},
		"progress": func(t *testing.T, seed int64, reg *obs.Registry) (string, string, error) {
			w := world(t, alphaproto.MustNew(2), seq.FromInts(0, 1))
			sys := warmSystem(t, w, seed)
			res, err := progress(sys, w, ExploreConfig{MaxDepth: 10, MaxStates: 1 << 20, Obs: reg})
			if err != nil {
				return "", "", err
			}
			return numbering(t, sys, w), fmt.Sprintf("states=%d completed=%d doomed=%d truncated=%v\n%s",
				res.States, res.Completed, res.Doomed, res.Truncated, witnessString(res.DoomedWitness)), nil
		},
	}
	for scope, run := range runs {
		t.Run(scope, func(t *testing.T) {
			t.Parallel()
			want, fresh, renumbered := "", "", false
			for seed := int64(0); seed < 6; seed++ {
				reg := obs.NewRegistry()
				ids, got, err := run(t, seed, reg)
				if err != nil {
					t.Fatal(err)
				}
				c := reg.Snapshot().Counters
				got += fmt.Sprintf("\ndedup hits %d misses %d", c["mc_"+scope+"_dedup_hits_total"], c["mc_"+scope+"_dedup_misses_total"])
				if seed == 0 {
					want, fresh = got, ids
				} else if got != want {
					t.Fatalf("warm-up seed %d:\ngot  %s\nwant %s", seed, got, want)
				}
				renumbered = renumbered || ids != fresh
			}
			if !renumbered {
				t.Errorf("every system numbered the probe walk %s: the warm-ups did not vary the numbering", fresh)
			}
		})
	}
}

// badSender is a sender that, on its third tick, sends a message outside
// the alphabet it declares — the one way a step of a spec-built system
// can fail.
type badSender struct {
	ticks int
	moved bool // the last Step was a tick
}

func (s *badSender) Step(ev protocol.Event) []msg.Msg {
	if s.moved = ev.Kind == protocol.Tick; s.moved {
		if s.ticks++; s.ticks == 3 {
			return []msg.Msg{"rogue"}
		}
	}
	return []msg.Msg{"ok"}
}
func (s *badSender) Moved() bool            { return s.moved }
func (s *badSender) Alphabet() msg.Alphabet { return msg.MustNewAlphabet("ok") }
func (s *badSender) Done() bool             { return false }
func (s *badSender) Clone() protocol.Sender { cp := *s; return &cp }
func (s *badSender) Key() string            { return fmt.Sprint(s.ticks) }

type idleReceiver struct{}

func (idleReceiver) Step(protocol.Event) ([]msg.Msg, seq.Seq) { return nil, nil }
func (idleReceiver) Alphabet() msg.Alphabet                   { return msg.MustNewAlphabet("ack") }
func (r idleReceiver) Clone() protocol.Receiver               { return r }
func (idleReceiver) Key() string                              { return "idle" }

// tickROnly is a sampler that only ever ticks R.
type tickROnly struct{}

func (tickROnly) Name() string                                   { return "tickR-only" }
func (tickROnly) Choose(*sim.World, []trace.Action) trace.Action { return trace.TickR() }

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
	runs := map[string]func(reg *obs.Registry) error{
		"explore": func(reg *obs.Registry) error {
			_, err := Explore(spec, x, channel.KindDel, ExploreConfig{MaxDepth: 8, Obs: reg})
			return err
		},
		"refute": func(reg *obs.Registry) error {
			_, err := Refute(spec, x, seq.FromInts(1), channel.KindDel, ExploreConfig{MaxDepth: 8, Obs: reg})
			return err
		},
		"stabilize": func(reg *obs.Registry) error {
			_, err := CheckStabilize(spec, x, channel.KindDel, StabilizeConfig{MaxDepth: 8, Scrambles: 1, ChannelJunk: 1, Obs: reg})
			return err
		},
		// The sampled run never ticks S, so it stays clean: only an
		// extension reaches the third tick.
		"recovery": func(reg *obs.Registry) error {
			_, err := CheckBounded(spec, x, channel.KindDel, BoundedConfig{Budget: 8, Sampler: tickROnly{}, Obs: reg})
			return err
		},
		"progress": func(reg *obs.Registry) error {
			_, err := CheckProgress(spec, x, channel.KindDel, ExploreConfig{MaxDepth: 8, Obs: reg})
			return err
		},
	}
	for scope, run := range runs {
		reg := obs.NewRegistry()
		err := run(reg)
		if err == nil || !strings.Contains(err.Error(), `"rogue" outside M^S`) {
			t.Fatalf("%s: error %v, want the out-of-alphabet send", scope, err)
		}
		counters := reg.Snapshot().Counters
		if counters["mc_"+scope+"_runs_total"] != 1 || counters["mc_"+scope+"_states_total"] == 0 {
			t.Errorf("%s: a failed run published %v", scope, counters)
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
