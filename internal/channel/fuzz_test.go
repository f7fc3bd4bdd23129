package channel

import (
	"testing"

	"seqtx/internal/msg"
)

// TestDupDelDeliverableIsSnapshot pins that Deliverable() hands out a
// fresh copy: campaign code iterates and mutates these counts freely, and
// a shared map would corrupt the half.
func TestDupDelDeliverableIsSnapshot(t *testing.T) {
	t.Parallel()
	d := NewDupDel()
	d.Send("a")
	c := d.Deliverable()
	c.Add("b", 3)
	delete(c, "a")
	if d.CanDeliver("b") {
		t.Error("mutating the snapshot injected a message into the half")
	}
	if !d.CanDeliver("a") {
		t.Error("mutating the snapshot erased a message from the half")
	}
}

// fuzzKinds fixes the kind decode order for the fuzzer.
var fuzzKinds = []Kind{KindDup, KindDel, KindReorder, KindFIFO, KindDupDel, KindBounded}

// FuzzHalfCloneKeyConsistency drives every channel kind through an
// arbitrary interleaving of Send/Deliver/Drop (plus FIFO duplication) and
// checks the contracts the simulator and model checker lean on:
//
//   - a Clone and its original, fed identical operations, report
//     identical Keys and identical operation outcomes (determinism);
//   - mutating a clone never changes the original's Key, nor a clone of
//     the clone taken before (independence: no shared backing array);
//   - CopyFrom into a half that other operations have already written
//     (a longer slice, a consumed FIFO head) makes it equal to its
//     source, and afterwards neither one's writes show in the other;
//   - Support(i) walks exactly Deliverable().Support();
//   - CanDeliver/CanDrop exactly predict Deliver/Drop success;
//   - everything in Deliverable() is deliverable.
//
// Each op byte decodes as (message, operation); messages come from a
// 4-letter alphabet so collisions (re-sends, double drops) are frequent.
func FuzzHalfCloneKeyConsistency(f *testing.F) {
	f.Add(byte(0), []byte{})
	f.Add(byte(1), []byte{0, 4, 8, 1, 5, 9})
	f.Add(byte(3), []byte{0, 0, 4, 4, 8, 2, 6, 10})
	f.Add(byte(4), []byte{3, 7, 11, 3, 7, 11, 0, 1, 2})
	f.Add(byte(5), []byte{0, 0, 1, 4, 8, 1, 1, 5, 9, 2})
	f.Fuzz(func(t *testing.T, kindSel byte, ops []byte) {
		kind := fuzzKinds[int(kindSel)%len(fuzzKinds)]
		h, err := New(kind)
		if err != nil {
			t.Fatal(err)
		}
		mirror := h.Clone()
		if mirror.Key() != h.Key() {
			t.Fatalf("%s: fresh clone key %q != original %q", kind, mirror.Key(), h.Key())
		}
		copied := sibling(kind) // every CopyFrom lands on what the last one left
		for i, op := range ops {
			m := msg.Msg(rune('a' + int(op)%4))
			kindOp := (int(op) / 4) % 4
			applied, err1 := applyFuzzOp(h, kindOp, m)
			applied2, err2 := applyFuzzOp(mirror, kindOp, m)
			if applied != applied2 || (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s: op %d (%s %q) diverged: original (%v, %v) vs clone (%v, %v)",
					kind, i, opName(kindOp), m, applied, err1, applied2, err2)
			}
			if h.Key() != mirror.Key() {
				t.Fatalf("%s: op %d (%s %q): keys diverged under identical ops:\n  %q\n  %q",
					kind, i, opName(kindOp), m, h.Key(), mirror.Key())
			}
			// Independence: a throwaway clone's mutations must not leak
			// back into the original or forward into its own clone.
			// Re-sending and consuming what is already in flight writes
			// existing entries in place — exactly what would show through
			// a shared backing array.
			before := h.Key()
			scratch := h.Clone()
			bystander := scratch.Clone()
			scribble(scratch)
			if h.Key() != before {
				t.Fatalf("%s: op %d: mutating a clone changed the original key", kind, i)
			}
			if bystander.Key() != before {
				t.Fatalf("%s: op %d: mutating a clone changed a clone of it", kind, i)
			}
			copied.CopyFrom(h)
			if err := sameHalf(copied, h); err != nil {
				t.Fatalf("%s: op %d: CopyFrom: %v", kind, i, err)
			}
			scribble(copied)
			if h.Key() != before {
				t.Fatalf("%s: op %d: mutating a copy changed its source's key", kind, i)
			}
			copied.CopyFrom(scratch)
			copiedKey := copied.Key()
			scribble(scratch)
			if copied.Key() != copiedKey {
				t.Fatalf("%s: op %d: mutating a source changed its copy's key", kind, i)
			}
			support := h.Deliverable().Support()
			for j := 0; j <= len(support); j++ {
				sm, ok := h.Support(j)
				if ok != (j < len(support)) || (ok && sm != support[j]) {
					t.Fatalf("%s: op %d: Support(%d) = %q, %v; Deliverable().Support() = %v", kind, i, j, sm, ok, support)
				}
			}
			// Every advertised deliverable must actually deliver on a probe
			// clone.
			for _, dm := range support {
				if !h.CanDeliver(dm) {
					t.Fatalf("%s: op %d: %q in Deliverable() but CanDeliver is false", kind, i, dm)
				}
				probe := h.Clone()
				if err := probe.Deliver(dm); err != nil {
					t.Fatalf("%s: op %d: advertised %q failed to deliver: %v", kind, i, dm, err)
				}
			}
		}
		if h.SentTotal() != mirror.SentTotal() {
			t.Fatalf("%s: SentTotal diverged: %d vs %d", kind, h.SentTotal(), mirror.SentTotal())
		}
	})
}

// scribble writes to h the way a throwaway copy is written: re-sending
// and consuming what is already in flight writes existing entries in
// place — exactly what would show through a shared backing array.
func scribble(h Half) {
	for _, letter := range []msg.Msg{"a", "b", "c", "d"} {
		h.Send(letter)
		_ = h.Deliver(letter)
		_ = h.Deliver(letter)
		_ = h.Drop(letter)
	}
	h.Send("zz")
	_ = h.Deliver("zz")
}

// applyFuzzOp performs one decoded operation, gated on the Can* guards so
// the guard itself is what the fuzzer validates: a guard that says yes
// must be followed by success, one that says no skips (and a failure
// after a yes fails the test via the returned error).
func applyFuzzOp(h Half, kindOp int, m msg.Msg) (applied bool, err error) {
	switch kindOp {
	case 0:
		h.Send(m)
		return true, nil
	case 1:
		if !h.CanDeliver(m) {
			return false, nil
		}
		return true, h.Deliver(m)
	case 2:
		if !h.CanDrop(m) {
			return false, nil
		}
		return true, h.Drop(m)
	default:
		f, ok := h.(*FIFO)
		if !ok || !f.AllowsDup() || !f.CanDeliver(m) {
			return false, nil
		}
		return true, f.DeliverKeep(m)
	}
}

func opName(kindOp int) string {
	return [...]string{"send", "deliver", "drop", "deliver+dup"}[kindOp]
}
