package sim_test

// A model-checker successor is a step of the tabulated system
// (sim.System). Two properties keep it honest: it computes exactly what
// Clone+Apply computes (differential walks), and the tables are never
// written through — a filed state never changes because a relative of it
// was stepped, materialised and walked on, or filed again (sharing walks).

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
)

var allKinds = []channel.Kind{
	channel.KindDup, channel.KindDel, channel.KindReorder,
	channel.KindFIFO, channel.KindDupDel, channel.KindBounded,
}

// zooParams builds every registry protocol over the input ⟨0,1,2⟩.
var zooParams = registry.Params{M: 3, Timeout: 2, Window: 2}

func newWorld(t testing.TB, spec protocol.Spec, kind channel.Kind) *sim.World {
	t.Helper()
	link, err := channel.NewLinkOfKind(kind)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.New(spec, seq.FromInts(0, 1, 2), link)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// forEachSystem runs fn for every registry protocol on every channel kind.
func forEachSystem(t *testing.T, fn func(t *testing.T, spec protocol.Spec, kind channel.Kind)) {
	for _, proto := range registry.ProtocolNames() {
		spec, err := registry.Protocol(proto, zooParams)
		if err != nil {
			t.Fatalf("building %s: %v", proto, err)
		}
		for _, kind := range allKinds {
			t.Run(fmt.Sprintf("%s/%s", proto, kind), func(t *testing.T) {
				t.Parallel()
				fn(t, spec, kind)
			})
		}
	}
}

// pick chooses in [0, n); walks are driven by a seeded rng or, in the
// fuzz target, by the input bytes.
type pick func(n int) int

// nextAction draws the next action of a walk: usually an enabled one,
// sometimes a crash or scramble restart (which replace a process rather
// than step it), and rarely a delivery the channel must reject (the error
// paths have to agree too).
func nextAction(w *sim.World, p pick) trace.Action {
	switch p(16) {
	case 0:
		return trace.CrashS()
	case 1:
		return trace.CrashR()
	case 2:
		return trace.ScrambleS(int64(p(8)))
	case 3:
		return trace.ScrambleR(int64(p(8)))
	case 4:
		return trace.Deliver(channel.SToR, "never-sent")
	}
	acts := w.Enabled()
	return acts[p(len(acts))]
}

// snapshot is everything observable about a world: the canonical key in
// both encodings, the tape contents (the key only carries its length),
// the clock and the violation.
func snapshot(w *sim.World) string {
	return fmt.Sprintf("%s\n%x\nY=%s t=%d violation=%v", w.Key(), w.EncodeKey(nil), w.Output, w.Time, w.SafetyViolation)
}

// restarts reports whether act replaces a process instead of stepping it.
// The tables do not hold such actions: they are applied to a world, and
// the world is filed.
func restarts(act trace.Action) bool {
	return act.Kind >= trace.ActCrashS
}

// tabulated is a state of a walk: its identity in the tables and the tape
// the tables leave to the caller.
type tabulated struct {
	st   sim.State
	tape seq.Tape
}

// step takes act from t through the tables (or around them, for a
// restart) and returns the successor with the step's sends and writes.
func (t tabulated) step(sys *sim.System, input seq.Seq, act trace.Action) (tabulated, []msg.Msg, seq.Seq, error) {
	if restarts(act) {
		w := sys.World(t.st)
		if err := w.Apply(act); err != nil {
			return t, nil, nil, err
		}
		return tabulated{sys.Intern(w), t.tape}, nil, nil, nil
	}
	step, err := sys.Step(t.st, sys.MoveOf(act))
	if err != nil {
		return t, nil, nil, err
	}
	var sends []msg.Msg
	for _, id := range step.Sends {
		sends = append(sends, sys.Action(sim.Move{Kind: trace.ActDeliver, Dir: step.SendDir, Msg: id}).Msg)
	}
	return tabulated{step.Next, t.tape.Write(input, step.Writes)}, sends, step.Writes, nil
}

// matches checks that t is ref by identity: its components materialise
// to ref's key (the tape length aside, which the tables do not hold) and
// its tape is ref's.
func (t tabulated) matches(sys *sim.System, ref *sim.World) error {
	w := sys.World(t.st)
	w.Output = ref.Output
	if !bytes.Equal(w.EncodeKey(nil), ref.EncodeKey(nil)) || w.Key() != ref.Key() {
		return fmt.Errorf("tabulated state\n%s\nClone+Apply\n%s", w.Key(), ref.Key())
	}
	if t.tape != ref.Tape() {
		return fmt.Errorf("tabulated tape %+v, Clone+Apply tape %+v", t.tape, ref.Tape())
	}
	return nil
}

// TestSuccessorMatchesCloneApply walks every system with seeded random
// actions and checks at each step that the tabulated step and
// Clone+Apply agree on the key bytes, the key string, the tape, the
// sends, the writes, the enabled actions and the error. The walk
// continues on the successor, so later steps are memo hits as often as
// misses.
func TestSuccessorMatchesCloneApply(t *testing.T) {
	t.Parallel()
	forEachSystem(t, func(t *testing.T, spec protocol.Spec, kind channel.Kind) {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			w := newWorld(t, spec, kind)
			sys := sim.NewSystem(w)
			cur := tabulated{sys.Intern(w), w.Tape()}
			for step := 0; step < 60; step++ {
				var enabled []trace.Action
				for _, mv := range sys.Moves(nil, cur.st) {
					enabled = append(enabled, sys.Action(mv))
				}
				if !slices.Equal(enabled, w.Enabled()) {
					t.Fatalf("seed %d step %d: tabulated moves %v, enabled actions %v", seed, step, enabled, w.Enabled())
				}
				act := nextAction(w, rng.Intn)
				next, sends, writes, serr := cur.step(sys, w.Input, act)
				ref := w.Clone()
				ref.StartTrace()
				rerr := ref.Apply(act)
				if (serr == nil) != (rerr == nil) || (serr != nil && serr.Error() != rerr.Error()) {
					t.Fatalf("seed %d step %d: %s: tabulated error %v, Clone+Apply error %v", seed, step, act, serr, rerr)
				}
				if serr != nil {
					continue
				}
				if err := next.matches(sys, ref); err != nil {
					t.Fatalf("seed %d step %d: %s: %v", seed, step, act, err)
				}
				if e := ref.Trace.Entries[0]; !restarts(act) && (!slices.Equal(sends, e.Sends) || !writes.Equal(e.Writes)) {
					t.Fatalf("seed %d step %d: %s: tabulated sends %v writes %s, Clone+Apply sends %v writes %s",
						seed, step, act, sends, writes, e.Sends, e.Writes)
				}
				cur, w = next, ref
			}
			if err := sys.CheckFiled(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	})
}

// sharingWalk is the property tabulation can break: the tables hand the
// same filed objects to every state that shares a component, so nothing
// may ever write to one. It walks to a parent, expands it into all its
// children plus crash and scramble children, and then keeps stepping
// relatives in every way the API allows — a materialised child walked on
// by Apply, a grandchild reached through the tables and then walked on, a
// walked-on world filed back and walked on further — checking after
// every step that the parent and every child still materialise exactly
// as they did, and that every filed object still has its key.
func sharingWalk(t testing.TB, spec protocol.Spec, kind channel.Kind, p pick, rounds int) {
	root := newWorld(t, spec, kind)
	sys := sim.NewSystem(root)
	parent := tabulated{sys.Intern(root), root.Tape()}
	for i := p(12); i > 0; i-- {
		if next, _, _, err := parent.step(sys, root.Input, nextAction(sys.World(parent.st), p)); err == nil {
			parent = next
		}
	}
	acts := append(sys.World(parent.st).Enabled(), trace.CrashS(), trace.CrashR(), trace.ScrambleS(3), trace.ScrambleR(5))
	// family is the parent, then its children. Each is snapshotted the
	// moment it exists: a later sibling's first step is already a chance
	// to corrupt it.
	family := []tabulated{parent}
	want := []string{snapshot(sys.World(parent.st))}
	for _, act := range acts {
		child, _, _, err := parent.step(sys, root.Input, act)
		if err != nil {
			t.Fatalf("expanding %s: %v", act, err)
		}
		family = append(family, child)
		want = append(want, snapshot(sys.World(child.st)))
	}
	check := func(what string) {
		t.Helper()
		for i, m := range family {
			if got := snapshot(sys.World(m.st)); got != want[i] {
				t.Fatalf("%s wrote through the tables: family[%d] (0 = parent) changed\nbefore %s\nafter  %s", what, i, want[i], got)
			}
		}
		if err := sys.CheckFiled(); err != nil {
			t.Fatalf("%s wrote through the tables: %v", what, err)
		}
	}
	// walk steps w in place a few times. A rejected action is fine: the
	// property is about the tables, whatever happened to w itself.
	walk := func(w *sim.World) {
		for i := 1 + p(4); i > 0; i-- {
			_ = w.Apply(nextAction(w, p))
		}
	}
	check("expanding the parent")
	for round := 0; round < rounds; round++ {
		child := family[1+p(len(family)-1)]
		switch p(3) {
		case 0:
			// A materialised world is made of private clones.
			walk(sys.World(child.st))
			check("Apply on a materialised child")
		case 1:
			g, _, _, err := child.step(sys, root.Input, nextAction(sys.World(child.st), p))
			if err != nil {
				continue
			}
			walk(sys.World(g.st))
			check("Apply on a grandchild")
		case 2:
			// Filing a world clones what it keeps: the world stays the
			// caller's to write.
			w := sys.World(child.st)
			walk(w)
			sys.Intern(w)
			walk(w)
			check("Apply on a world after filing it")
		}
	}
}

func TestSuccessorSharingIsInvisible(t *testing.T) {
	t.Parallel()
	forEachSystem(t, func(t *testing.T, spec protocol.Spec, kind channel.Kind) {
		for seed := int64(1); seed <= 4; seed++ {
			sharingWalk(t, spec, kind, rand.New(rand.NewSource(seed)).Intn, 24)
		}
	})
}

// TestTabulatedObjectsStayFiled walks each system ten thousand steps
// through the tables and then re-encodes every object they hold: each
// must still have the key it was filed under.
func TestTabulatedObjectsStayFiled(t *testing.T) {
	t.Parallel()
	forEachSystem(t, func(t *testing.T, spec protocol.Spec, kind channel.Kind) {
		rng := rand.New(rand.NewSource(1))
		w := newWorld(t, spec, kind)
		sys := sim.NewSystem(w)
		st, moves := sys.Intern(w), []sim.Move(nil)
		for step := 0; step < 10000; step++ {
			moves = sys.Moves(moves[:0], st)
			next, err := sys.Step(st, moves[rng.Intn(len(moves))])
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			st = next.Next
			if rng.Intn(64) == 0 {
				st = sys.Intern(w) // unbounded halves only grow: start over
			}
		}
		if err := sys.CheckFiled(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTabulatedStepZeroAlloc gates the memo hit: once a System has seen a
// step, taking it again allocates nothing.
func TestTabulatedStepZeroAlloc(t *testing.T) {
	spec, err := registry.Protocol("alpha", zooParams)
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld(t, spec, channel.KindDel)
	sys := sim.NewSystem(w)
	root := sys.Intern(w)
	var moves []sim.Move
	// sweep steps every move of every state of a fixed walk.
	sweep := func() {
		st := root
		for depth := 0; depth < 12; depth++ {
			moves = sys.Moves(moves[:0], st)
			for _, mv := range moves {
				if _, err := sys.Step(st, mv); err != nil {
					t.Fatal(err)
				}
			}
			next, _ := sys.Step(st, moves[(depth*7)%len(moves)])
			st = next.Next
		}
	}
	sweep() // fill the memo
	if allocs := testing.AllocsPerRun(20, sweep); allocs != 0 {
		t.Errorf("a sweep of memo hits allocates %.1f objects, want 0", allocs)
	}
}

// TestSystemConcurrentReaders has several goroutines, a System each built
// from the same spec, take the same seeded walk at once. A System has one
// owner, but independent Systems run side by side (SearchProtocols, soak
// campaigns, parallel tests) and share the spec's message tables and
// closures: they must not write to them (run under -race), and must all
// end in the same state with every filed object intact.
func TestSystemConcurrentReaders(t *testing.T) {
	t.Parallel()
	forEachSystem(t, func(t *testing.T, spec protocol.Spec, kind channel.Kind) {
		const walkers = 4
		ends := make([]string, walkers)
		var wg sync.WaitGroup
		for g := 0; g < walkers; g++ {
			w := newWorld(t, spec, kind)
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(7))
				sys := sim.NewSystem(w)
				st, moves := sys.Intern(w), []sim.Move(nil)
				for step := 0; step < 300; step++ {
					moves = sys.Moves(moves[:0], st)
					next, err := sys.Step(st, moves[rng.Intn(len(moves))])
					if err != nil {
						t.Errorf("walker %d step %d: %v", g, step, err)
						return
					}
					st = next.Next
				}
				ends[g] = sys.World(st).Key()
				if err := sys.CheckFiled(); err != nil {
					t.Errorf("walker %d: %v", g, err)
				}
			}()
		}
		wg.Wait()
		for g, end := range ends {
			if end != ends[0] {
				t.Errorf("walker %d ended in %s, walker 0 in %s", g, end, ends[0])
			}
		}
	})
}

// FuzzSuccessorSharing drives sharingWalk from the fuzz input: the bytes
// are the walk's choices, so the fuzzer steers which relatives are stepped
// and how. The seed corpus is the generator the tests above use.
func FuzzSuccessorSharing(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		choices := make([]byte, 96)
		rand.New(rand.NewSource(seed)).Read(choices)
		f.Add(choices, uint8(seed), uint8(seed*5))
	}
	protos := registry.ProtocolNames()
	f.Fuzz(func(t *testing.T, choices []byte, protoIdx, kindIdx uint8) {
		spec, err := registry.Protocol(protos[int(protoIdx)%len(protos)], zooParams)
		if err != nil {
			t.Fatal(err)
		}
		fromBytes := func(n int) int {
			if len(choices) == 0 {
				return 0
			}
			b := choices[0]
			choices = choices[1:]
			return int(b) % n
		}
		sharingWalk(t, spec, allKinds[int(kindIdx)%len(allKinds)], fromBytes, 16)
	})
}
