package sim_test

// Successor is Clone+Apply by structural sharing. Two properties keep it
// honest: it computes exactly what Clone+Apply computes (differential
// walks), and no write ever shows through an alias — a world's state
// never changes because a relative of it was stepped (sharing walks).

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"seqtx/internal/channel"
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

// TestSuccessorMatchesCloneApply walks every system with seeded random
// actions and checks at each step that Successor(act) and Clone+Apply(act)
// agree on the key bytes, the key string, the output, the clock, the
// violation and the error. The walk continues on the successor, so later
// steps run on worlds that share most of their state with their ancestors.
func TestSuccessorMatchesCloneApply(t *testing.T) {
	t.Parallel()
	forEachSystem(t, func(t *testing.T, spec protocol.Spec, kind channel.Kind) {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			w := newWorld(t, spec, kind)
			for step := 0; step < 60; step++ {
				act := nextAction(w, rng.Intn)
				before := snapshot(w)
				succ, serr := w.Successor(act)
				ref := w.Clone()
				rerr := ref.Apply(act)
				if got := snapshot(w); got != before {
					t.Fatalf("seed %d step %d: %s changed its parent:\nbefore %s\nafter  %s", seed, step, act, before, got)
				}
				if (serr == nil) != (rerr == nil) || (serr != nil && serr.Error() != rerr.Error()) {
					t.Fatalf("seed %d step %d: %s: Successor error %v, Clone+Apply error %v", seed, step, act, serr, rerr)
				}
				if serr != nil {
					continue
				}
				if !bytes.Equal(succ.EncodeKey(nil), ref.EncodeKey(nil)) {
					t.Fatalf("seed %d step %d: %s: EncodeKey bytes differ", seed, step, act)
				}
				if got, want := snapshot(succ), snapshot(ref); got != want {
					t.Fatalf("seed %d step %d: %s:\nSuccessor   %s\nClone+Apply %s", seed, step, act, got, want)
				}
				w = succ
			}
		}
	})
}

// sharingWalk is the property structural sharing can break. It walks to a
// parent (itself a successor chain, so it aliases its ancestors), expands
// it into all its children plus crash and scramble children, and then
// keeps stepping relatives in every way the API allows — a direct Apply on
// a child, a grandchild walked on by Apply, a deep Clone of a child walked
// on — checking after every step that the parent and every other child
// still read exactly as they did.
func sharingWalk(t testing.TB, spec protocol.Spec, kind channel.Kind, p pick, rounds int) {
	parent := newWorld(t, spec, kind)
	// Spare tape capacity, as a world stepped by Apply has after a few
	// writes: appends by two relatives would land in the same slot.
	parent.Output = make(seq.Seq, 0, 8)
	for i := p(12); i > 0; i-- {
		if next, err := parent.Successor(nextAction(parent, p)); err == nil {
			parent = next
		}
	}
	acts := append(parent.Enabled(), trace.CrashS(), trace.CrashR(), trace.ScrambleS(3), trace.ScrambleR(5))
	// family is the parent, then its children. Each is snapshotted the
	// moment it exists: a later sibling's first write is already a chance
	// to corrupt it.
	family := []*sim.World{parent}
	want := []string{snapshot(parent)}
	for _, act := range acts {
		child, err := parent.Successor(act)
		if err != nil {
			t.Fatalf("expanding %s: %v", act, err)
		}
		family = append(family, child)
		want = append(want, snapshot(child))
	}
	check := func(what string) {
		t.Helper()
		for i, w := range family {
			if got := snapshot(w); got != want[i] {
				t.Fatalf("%s wrote through an alias: family[%d] (0 = parent) changed\nbefore %s\nafter  %s", what, i, want[i], got)
			}
		}
	}
	// walk steps w in place a few times. A rejected action is fine: the
	// property is about the relatives, whatever happened to w itself.
	walk := func(w *sim.World) {
		for i := 1 + p(4); i > 0; i-- {
			_ = w.Apply(nextAction(w, p))
		}
	}
	check("expanding the parent")
	for round := 0; round < rounds; round++ {
		i := 1 + p(len(family)-1)
		child := family[i]
		switch p(3) {
		case 0:
			// Direct Apply on a child: it must unshare before writing.
			// The child moves on; everyone else must not.
			walk(child)
			want[i] = snapshot(child)
			check("Apply on a child")
		case 1:
			g, err := child.Successor(nextAction(child, p))
			if err != nil {
				continue
			}
			walk(g)
			check("Apply on a grandchild")
		case 2:
			deep := child.Clone()
			walk(deep)
			check("Apply on a deep clone of a child")
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
