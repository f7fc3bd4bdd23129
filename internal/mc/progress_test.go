package mc

import (
	"strings"
	"testing"

	"seqtx/internal/channel"
	"seqtx/internal/protocol/alphaproto"
	"seqtx/internal/protocol/hybrid"
	"seqtx/internal/protocol/naive"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
)

// TestProgressTightProtocolOnDupCloses: on a dup channel the tight
// protocol's state space is finite (the deliverable SET is bounded), the
// exploration closes, and every reachable state can still complete —
// no schedule, however adversarial, paints the protocol into a corner.
func TestProgressTightProtocolOnDupCloses(t *testing.T) {
	t.Parallel()
	res, err := CheckProgress(alphaproto.MustNew(2), seq.FromInts(0, 1), channel.KindDup,
		ExploreConfig{MaxDepth: 64, MaxStates: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatalf("exploration did not close (%d states)", res.States)
	}
	if res.Doomed != 0 {
		t.Fatalf("%d doomed states; witness:\n%s", res.Doomed, res.DoomedWitness)
	}
	if res.Completed == 0 {
		t.Fatal("no completed state reachable")
	}
}

// TestProgressHybridDoubleDropDeadlock drives the §5 hybrid into the
// documented two-deletion deadlock (both single-copy streams lose their
// copy) and verifies the analyzer proves no completion is reachable.
func TestProgressHybridDoubleDropDeadlock(t *testing.T) {
	t.Parallel()
	spec := hybrid.MustNew(2, 1) // timeout 1: switches streams quickly
	link, err := channel.NewLinkOfKind(channel.KindDel)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.New(spec, seq.FromInts(0, 1, 0, 1), link)
	if err != nil {
		t.Fatal(err)
	}
	// Drive until both streams have a copy in flight, dropping each one.
	dropped := 0
	for step := 0; step < 200 && dropped < 2; step++ {
		// Drop any S→R data copy the moment it appears.
		sup := w.Link.Half(channel.SToR).Deliverable().Support()
		if len(sup) > 0 {
			if err := w.Apply(trace.Drop(channel.SToR, sup[0])); err != nil {
				t.Fatal(err)
			}
			dropped++
			continue
		}
		if err := w.Apply(trace.TickS()); err != nil {
			t.Fatal(err)
		}
	}
	if dropped < 2 {
		t.Fatalf("could not provoke two drops (got %d)", dropped)
	}
	res, err := CheckProgressFrom(w, ExploreConfig{MaxDepth: 64, MaxStates: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Doomed == 0 {
		t.Fatalf("deadlock not detected: %+v", res)
	}
	if res.Completed != 0 {
		t.Fatalf("completion reachable after double drop?! %+v", res)
	}
	if res.DoomedWitness == nil {
		t.Fatal("no doomed witness")
	}
}

// TestProgressHybridSingleDropRecovers: one deletion is survivable — from
// the post-drop state some schedule still completes.
func TestProgressHybridSingleDropRecovers(t *testing.T) {
	t.Parallel()
	spec := hybrid.MustNew(2, 1)
	link, err := channel.NewLinkOfKind(channel.KindDel)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.New(spec, seq.FromInts(0, 1), link)
	if err != nil {
		t.Fatal(err)
	}
	// First data copy appears, drop it.
	for step := 0; step < 50; step++ {
		sup := w.Link.Half(channel.SToR).Deliverable().Support()
		if len(sup) > 0 {
			if err := w.Apply(trace.Drop(channel.SToR, sup[0])); err != nil {
				t.Fatal(err)
			}
			break
		}
		if err := w.Apply(trace.TickS()); err != nil {
			t.Fatal(err)
		}
	}
	// A completion must be reachable from here. (The graph as a whole may
	// not close — fin retransmissions grow channel counts — so only the
	// existential claim is asserted.)
	res, err := CheckProgressFrom(w, ExploreConfig{MaxDepth: 40, MaxStates: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatalf("no completion reachable after a single drop: %+v", res)
	}
}

func TestProgressConfigValidation(t *testing.T) {
	t.Parallel()
	if _, err := CheckProgress(alphaproto.MustNew(1), seq.Seq{}, channel.KindDup, ExploreConfig{}); err == nil {
		t.Fatal("zero depth accepted")
	}
}

// TestDoomedWitnessReplaysAsPrinted: a doomed witness is a run that
// sim.Accept plays in full to the witness's own output, also when the
// shortest path to the doomed state breaks safety on the way (naive on a
// duplicating FIFO: the witness then ends at the violating step).
func TestDoomedWitnessReplaysAsPrinted(t *testing.T) {
	t.Parallel()
	spec, err := naive.NewWriteEveryData(2)
	if err != nil {
		t.Fatal(err)
	}
	input := seq.FromInts(0, 1)
	for _, kind := range []channel.Kind{channel.KindFIFO, channel.KindDup, channel.KindDel} {
		res, err := CheckProgress(spec, input, kind, ExploreConfig{MaxDepth: 6, MaxStates: 1 << 13})
		if err != nil {
			t.Fatal(err)
		}
		wit := res.DoomedWitness
		if wit == nil {
			t.Fatalf("%s: no doomed witness", kind)
		}
		link, err := channel.NewLinkOfKind(kind)
		if err != nil {
			t.Fatal(err)
		}
		w, err := sim.New(spec, input, link)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.Accept(w, wit.Actions, sim.Config{})
		if err != nil || got.Steps != len(wit.Actions) || !got.Output.Equal(wit.Output) {
			t.Errorf("%s: witness of %d actions with output %s replays %d steps to %s (%v)",
				kind, len(wit.Actions), wit.Output, got.Steps, got.Output, err)
		}
		if v := got.SafetyViolation; v != nil && !strings.Contains(wit.Err.Error(), v.Error()) {
			t.Errorf("%s: witness error %q drops the violation %q", kind, wit.Err, v)
		}
	}
}
