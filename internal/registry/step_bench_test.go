package registry_test

// Per-protocol Step micro-benchmarks over the shared steady-state
// fixtures (internal/protocol/steptest): the same paths the zero-alloc
// contract tests in internal/wire enforce — sender tick, receiver data
// parse + re-ack, sender ack parse, receiver decode miss. Recorded
// before/after the interned-codec refactor in BENCH_step.json.

import (
	"testing"

	"seqtx/internal/protocol"
	"seqtx/internal/protocol/steptest"
)

func BenchmarkStep(b *testing.B) {
	for _, f := range steptest.Fixtures() {
		f := f
		b.Run(f.Name+"/tick", func(b *testing.B) {
			s, _, err := f.New()
			if err != nil {
				b.Fatal(err)
			}
			ev := protocol.TickEvent()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step(ev)
			}
		})
		b.Run(f.Name+"/recv-data", func(b *testing.B) {
			_, r, err := f.New()
			if err != nil {
				b.Fatal(err)
			}
			ev := protocol.RecvEvent(f.Data)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Step(ev)
			}
		})
		b.Run(f.Name+"/recv-ack", func(b *testing.B) {
			s, _, err := f.New()
			if err != nil {
				b.Fatal(err)
			}
			ev := protocol.RecvEvent(f.Ack)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step(ev)
			}
		})
		b.Run(f.Name+"/recv-alien", func(b *testing.B) {
			_, r, err := f.New()
			if err != nil {
				b.Fatal(err)
			}
			ev := protocol.RecvEvent(f.Alien)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Step(ev)
			}
		})
	}
}

// TestStepFixturesSteady guards the benchmark's premise: every fixture
// path must be repeatable without drifting protocol state, or the
// benchmark above would silently measure a cold path.
func TestStepFixturesSteady(t *testing.T) {
	for _, f := range steptest.Fixtures() {
		if err := steptest.Steady(f); err != nil {
			t.Error(err)
		}
	}
}

// BenchmarkAppendKey prices the engine's progress probe per protocol:
// protocol.AppendKey of a fixture's warmed sender, which the loop worker
// encodes after every fill step and every acknowledgement. The windowed
// fixtures hold a full window of unacknowledged frames.
func BenchmarkAppendKey(b *testing.B) {
	for _, f := range steptest.Fixtures() {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			s, _, err := f.New()
			if err != nil {
				b.Fatal(err)
			}
			buf := protocol.AppendKey(nil, s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = protocol.AppendKey(buf[:0], s)
			}
		})
	}
}
