// Package schedgolden pins the schedules the repo's adversaries produce:
// one digest of the traced action sequence per (protocol, channel kind,
// adversary, fault plan, seed, budget) cell. Verdicts, report formats and
// seeds are pinned elsewhere; this is the only place a schedule is. It
// lives in its own package so it can import registry, faults, chanmodel
// and sim together.
package schedgolden

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"seqtx/internal/chanmodel"
	"seqtx/internal/channel"
	"seqtx/internal/faults"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/schedule_golden.txt")

const (
	goldenPath  = "testdata/schedule_golden.txt"
	goldenSteps = 300
)

// zoo is every registered protocol with parameters and an input it
// accepts.
var zoo = []struct {
	name   string
	params registry.Params
	input  seq.Seq
}{
	{"abp", registry.Params{M: 2}, seq.FromInts(0, 1)},
	{"afwz", registry.Params{M: 3}, seq.FromInts(2, 0, 1)},
	{"alpha", registry.Params{M: 3}, seq.FromInts(2, 0, 1)},
	{"flood", registry.Params{M: 2}, seq.FromInts(0, 1)},
	{"gobackn", registry.Params{M: 2, Window: 2}, seq.FromInts(0, 1)},
	{"hybrid", registry.Params{M: 2, Timeout: 4}, seq.FromInts(0, 1)},
	{"modseq", registry.Params{M: 2, Window: 2}, seq.FromInts(0, 1)},
	{"naive", registry.Params{M: 2}, seq.FromInts(0, 1)},
	{"selrepeat", registry.Params{M: 2, Window: 2}, seq.FromInts(0, 1)},
	{"stab", registry.Params{M: 3, Cap: 2}, seq.FromInts(2, 0, 1)},
	{"stenning", registry.Params{}, seq.FromInts(0, 1, 2)},
}

var kinds = []channel.Kind{
	channel.KindDup, channel.KindDel, channel.KindReorder, channel.KindFIFO,
	channel.KindDupDel, channel.KindBounded,
}

// cell runs adv against a fresh world on link for goldenSteps steps and
// renders one golden line: the cell id, the FNV-64a digest of the traced
// action strings, and the final output tape (or the run's error).
func cell(t *testing.T, id, proto string, p registry.Params, input seq.Seq, link *channel.Link, adv sim.Adversary) string {
	t.Helper()
	spec, err := registry.Protocol(proto, p)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	w, err := sim.New(spec, input, link)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	res, runErr := sim.Run(w, adv, sim.Config{MaxSteps: goldenSteps, RecordTrace: true})
	h := fnv.New64a()
	for _, e := range w.Trace.Entries {
		h.Write([]byte(e.Act.String()))
		h.Write([]byte{'\n'})
	}
	end := "Y=" + w.Output.String()
	if runErr != nil {
		end = "error after " + fmt.Sprint(res.Steps)
	}
	return fmt.Sprintf("%s %016x %s\n", id, h.Sum64(), end)
}

func link(t *testing.T, kind channel.Kind) *channel.Link {
	t.Helper()
	l, err := channel.NewLinkOfKind(kind)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestScheduleGolden compares every cell's schedule with the recorded
// one. Regenerate with -update-golden; the diff of the golden file is the
// evidence of what a change to an adversary moved.
func TestScheduleGolden(t *testing.T) {
	var got bytes.Buffer

	// Every registry adversary under every fault preset ("bare" is the
	// adversary with no plan wrapped around it at all).
	plans := append([]string{"bare"}, faults.PresetNames()...)
	for _, z := range zoo {
		for _, kind := range kinds {
			for _, advName := range registry.AdversaryNames() {
				for _, planName := range plans {
					for seed := int64(1); seed <= 2; seed++ {
						for budget := 1; budget <= 2; budget++ {
							id := fmt.Sprintf("%s/%s/%s/%s/seed=%d/budget=%d", z.name, kind, advName, planName, seed, budget)
							p := z.params
							p.Seed, p.Budget = seed, budget
							adv, err := registry.Adversary(advName, p)
							if err != nil {
								t.Fatal(err)
							}
							if planName == "bare" {
								got.WriteString(cell(t, id, z.name, p, z.input, link(t, kind), adv))
								continue
							}
							fs, err := faults.PresetSpec(planName)
							if err != nil {
								t.Fatal(err)
							}
							plan := fs.PlanSeeded(seed)
							l, err := plan.Link(kind)
							if err != nil {
								t.Fatal(err)
							}
							got.WriteString(cell(t, id, z.name, p, z.input, l, plan.Wrap(adv)))
						}
					}
				}
			}
		}
	}

	// The channel models' scripted rotation.
	for _, ms := range []string{"iid-dup(p=0.3)", "iid-loss(p=0.3)", "k-del(k=4,n=16)", "ge(pgb=0.1,pbg=0.4,lg=0.02,lb=0.8)"} {
		model := chanmodel.MustParse(ms)
		for _, proto := range []string{"alpha", "stenning", "afwz", "hybrid", "abp"} {
			for _, kind := range []channel.Kind{channel.KindDup, channel.KindDel} {
				for seed := int64(1); seed <= 3; seed++ {
					id := fmt.Sprintf("chanmodel/%s/%s/%s/seed=%d", ms, proto, kind, seed)
					input := seq.FromInts(0, 1, 2, 3)
					got.WriteString(cell(t, id, proto, registry.Params{M: 4, Timeout: 4}, input,
						link(t, kind), chanmodel.NewAdversary(model, seed)))
				}
			}
		}
	}

	// Eclipse in both directions (the registry only builds S→R).
	for _, dir := range []channel.Dir{channel.SToR, channel.RToS} {
		for _, proto := range []string{"alpha", "stenning", "abp"} {
			for _, kind := range []channel.Kind{channel.KindDup, channel.KindDel} {
				id := fmt.Sprintf("eclipse/%s/%s/%s", dir, proto, kind)
				got.WriteString(cell(t, id, proto, registry.Params{M: 3}, seq.FromInts(0, 1, 2),
					link(t, kind), sim.NewEclipse(dir, 25)))
			}
		}
	}

	if *updateGolden {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update-golden)", err)
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte{'\n'}), bytes.Split(want, []byte{'\n'})
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d cells, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	moved := 0
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			if moved++; moved <= 10 {
				t.Errorf("schedule moved:\n got %s\nwant %s", gotLines[i], wantLines[i])
			}
		}
	}
	if moved > 0 {
		t.Errorf("%d of %d schedule cells moved", moved, len(gotLines)-1)
	}
}
