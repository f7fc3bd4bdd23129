package registry

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"seqtx/internal/channel"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
)

func defaults() Params {
	return Params{M: 2, Timeout: 4, Window: 4, Seed: 1, Budget: 2}
}

func TestEveryProtocolBuildsAndRuns(t *testing.T) {
	t.Parallel()
	for _, name := range ProtocolNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := Protocol(name, defaults())
			if err != nil {
				t.Fatal(err)
			}
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
			// Pick a channel each protocol is correct on and check a run.
			kind := channel.KindDup
			switch name {
			case "afwz", "hybrid":
				kind = channel.KindReorder
			case "abp", "gobackn", "selrepeat":
				kind = channel.KindFIFO
			case "flood", "naive":
				kind = channel.KindFIFO // even these work without faults... on FIFO order holds
			}
			input := seq.FromInts(0, 1)
			res, err := sim.RunProtocol(spec, input, kind, sim.NewRoundRobin(),
				sim.Config{MaxSteps: 2000, StopWhenComplete: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.OutputComplete {
				t.Fatalf("%s did not complete on %s: %s", name, kind, res.Output)
			}
		})
	}
}

func TestUnknownNames(t *testing.T) {
	t.Parallel()
	if _, err := Protocol("nope", defaults()); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := Kind("nope"); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Adversary("nope", defaults()); err == nil {
		t.Error("unknown adversary accepted")
	}
}

func TestKindAliases(t *testing.T) {
	t.Parallel()
	k1, err := Kind("dupdel")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Kind("dup+del")
	if err != nil {
		t.Fatal(err)
	}
	if k1 != channel.KindDupDel || k2 != channel.KindDupDel {
		t.Errorf("aliases resolve to %v, %v", k1, k2)
	}
	for _, name := range []string{"dup", "del", "reorder", "fifo"} {
		if _, err := Kind(name); err != nil {
			t.Errorf("Kind(%q): %v", name, err)
		}
	}
}

func TestEveryAdversaryBuildsWithName(t *testing.T) {
	t.Parallel()
	for _, name := range AdversaryNames() {
		adv, err := Adversary(name, defaults())
		if err != nil {
			t.Fatal(err)
		}
		if adv.Name() == "" {
			t.Errorf("%s: empty adversary name", name)
		}
	}
}

func TestInvalidParamsPropagate(t *testing.T) {
	t.Parallel()
	p := defaults()
	p.M = -1
	if _, err := Protocol("alpha", p); err == nil {
		t.Error("negative M accepted by alpha")
	}
	p = defaults()
	p.Window = 0
	if _, err := Protocol("modseq", p); err == nil {
		t.Error("zero window accepted by modseq")
	}
}

// lockstep runs a fresh Pair of the named protocol over a perfect link —
// a sender tick, its messages delivered in order, the replies delivered
// back — and returns everything either process sent or wrote.
func lockstep(name string, input seq.Seq) (string, error) {
	s, r, err := Pair(name, defaults(), input)
	if err != nil {
		return "", err
	}
	var log strings.Builder
	for round := 0; round < 64; round++ {
		for _, d := range s.Step(protocol.TickEvent()) {
			acks, writes := r.Step(protocol.RecvEvent(d))
			fmt.Fprintf(&log, "%s>%v", d, writes)
			for _, a := range acks {
				fmt.Fprintf(&log, "<%s", a)
				s.Step(protocol.RecvEvent(a))
			}
		}
	}
	return log.String(), nil
}

// TestPairsOfOneSpecShareNoMutableState: Protocol hands every caller the
// same cached Spec, so what its constructors close over must be read-only
// or, like the Spec's slabs, guarded. Two goroutines run the zoo at once,
// each on pairs of its own; the race detector sees any unguarded write
// through the shared Spec, and the transcripts must equal a run made
// alone.
func TestPairsOfOneSpecShareNoMutableState(t *testing.T) {
	t.Parallel()
	input := seq.FromInts(0, 1)
	names := ProtocolNames()
	var got [2][]string
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]string, len(names))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, name := range names {
				log, err := lockstep(name, input)
				if err != nil {
					t.Errorf("%s: %v", name, err)
				}
				got[g][i] = log
			}
		}()
	}
	wg.Wait()
	for i, name := range names {
		alone, _ := lockstep(name, input)
		if alone == "" || got[0][i] != alone || got[1][i] != alone {
			t.Errorf("%s: concurrent runs %q and %q, alone %q", name, got[0][i], got[1][i], alone)
		}
	}
}
