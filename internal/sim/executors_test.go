package sim_test

import (
	"fmt"
	"testing"

	"seqtx/internal/channel"
	"seqtx/internal/protocol"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
)

// runCell is one kind of single run: a protocol over a link kind on an
// input of the given length (items i mod M).
type runCell struct {
	name  string
	proto string
	p     registry.Params
	items int
	kind  channel.Kind
}

var runCells = []runCell{
	{"alpha-m4-dupdel", "alpha", registry.Params{M: 4}, 4, channel.KindDupDel},
	{"alpha-m8-del", "alpha", registry.Params{M: 8}, 8, channel.KindDel},
	{"stenning-64-del", "stenning", registry.Params{M: 4}, 64, channel.KindDel},
	{"selrepeat-w16-64-fifo", "selrepeat", registry.Params{M: 8, Window: 16}, 64, channel.KindFIFO},
	{"gobackn-w4-16-fifo", "gobackn", registry.Params{M: 8, Window: 4}, 16, channel.KindFIFO},
}

// recordRuns records eight seeded random-dropper runs of c, each to
// completion or its step budget, and returns the spec, the input and
// every run's action list.
func recordRuns(b *testing.B, c runCell) (protocol.Spec, seq.Seq, [][]trace.Action) {
	spec, err := registry.Protocol(c.proto, c.p)
	if err != nil {
		b.Fatal(err)
	}
	input := make(seq.Seq, c.items)
	for i := range input {
		input[i] = seq.Item(i % c.p.M)
	}
	var runs [][]trace.Action
	for seed := int64(1); seed <= 8; seed++ {
		w := newRunWorld(b, spec, input, c.kind)
		res, err := sim.Run(w, sim.NewRandomDropper(seed, 1), sim.Config{MaxSteps: 20000, StopWhenComplete: true, RecordTrace: true})
		if err != nil || res.SafetyViolation != nil {
			b.Fatalf("%s seed %d: %v %v", c.name, seed, err, res.SafetyViolation)
		}
		runs = append(runs, w.Trace.Actions())
	}
	return spec, input, runs
}

func newRunWorld(b *testing.B, spec protocol.Spec, input seq.Seq, kind channel.Kind) *sim.World {
	link, err := channel.NewLinkOfKind(kind)
	if err != nil {
		b.Fatal(err)
	}
	w, err := sim.New(spec, input, link)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkRunExecutors replays the same recorded runs through the two
// executors: a fresh World stepped in place by Apply, and a fresh System
// stepped by Step with the output judged by its Tape. One op replays
// every run of a cell. A run rarely meets a state twice, so nearly every
// System step is a memo miss — filed objects/step says how many.
func BenchmarkRunExecutors(b *testing.B) {
	for _, c := range runCells {
		spec, input, runs := recordRuns(b, c)
		steps := 0
		for _, r := range runs {
			steps += len(r)
		}
		b.Run(fmt.Sprintf("apply/%s", c.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, run := range runs {
					w := newRunWorld(b, spec, input, c.kind)
					for _, act := range run {
						if err := w.Apply(act); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
		})
		b.Run(fmt.Sprintf("system/%s", c.name), func(b *testing.B) {
			b.ReportAllocs()
			filed := 0
			for i := 0; i < b.N; i++ {
				filed = 0
				for _, run := range runs {
					w := newRunWorld(b, spec, input, c.kind)
					sys := sim.NewSystem(w)
					st, tape := sys.Intern(w), w.Tape()
					for _, act := range run {
						step, err := sys.Step(st, sys.MoveOf(act))
						if err != nil {
							b.Fatal(err)
						}
						st, tape = step.Next, tape.Write(input, step.Writes)
					}
					if tape.Violated {
						b.Fatalf("%s: replay violated safety", c.name)
					}
					filed += sys.Filed()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
			b.ReportMetric(float64(filed)/float64(steps), "filed/step")
		})
	}
}
