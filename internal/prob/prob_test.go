package prob

import (
	"testing"

	"seqtx/internal/chanmodel"
	"seqtx/internal/channel"
	"seqtx/internal/protocol/alphaproto"
	"seqtx/internal/protocol/modseq"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
)

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	spec := alphaproto.MustNew(2)
	if _, err := Run(spec, seq.FromInts(0), channel.KindDup, Config{}); err == nil {
		t.Fatal("zero trials accepted")
	}
}

func TestTightProtocolNeverFails(t *testing.T) {
	t.Parallel()
	// Monte Carlo over the tight protocol within its lawful X: zero
	// violations, full completion — probability 0 of failure matches the
	// theorem's possibility 0.
	est, err := Run(alphaproto.MustNew(3), seq.FromInts(2, 0, 1), channel.KindDup, Config{
		Trials: 50,
		Seed:   9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Violations != 0 {
		t.Errorf("tight protocol violated safety in %d/%d random runs", est.Violations, est.Trials)
	}
	if est.Completed != est.Trials {
		t.Errorf("completed %d/%d (stalled %d)", est.Completed, est.Trials, est.Stalled)
	}
	if est.ViolationRate() != 0 || est.CompletionRate() != 1 {
		t.Errorf("rates = %f, %f", est.ViolationRate(), est.CompletionRate())
	}
}

func TestModseqWindowOneFailsOften(t *testing.T) {
	t.Parallel()
	// The degenerate window: stale replays collide constantly.
	spec, err := modseq.New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Run(spec, seq.FromInts(0, 1, 0, 1), channel.KindDup, Config{
		Trials: 40,
		Seed:   4,
		NewAdversary: func(trial int) sim.Adversary {
			return sim.NewReplayer(int64(trial)+100, 2)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Violations == 0 {
		t.Error("window-1 modseq survived heavy replay in every run")
	}
}

func TestWideWindowFailsRarely(t *testing.T) {
	t.Parallel()
	// Window >= input length: no in-run modular collision is possible.
	spec, err := modseq.New(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Run(spec, seq.FromInts(0, 1, 0, 1), channel.KindDup, Config{
		Trials: 30,
		Seed:   5,
		NewAdversary: func(trial int) sim.Adversary {
			return sim.NewReplayer(int64(trial)+200, 2)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Violations != 0 {
		t.Errorf("window-8 modseq violated safety %d times on a 4-item input", est.Violations)
	}
	if est.Completed != est.Trials {
		t.Errorf("completed %d/%d", est.Completed, est.Trials)
	}
}

func TestDropWeightPathOnDelChannel(t *testing.T) {
	t.Parallel()
	// The default factory with drops: the tight protocol still never
	// violates; completion may occasionally stall within budget, which is
	// acceptable — random drops are not fairness-bounded.
	est, err := Run(alphaproto.MustNew(3), seq.FromInts(1, 2), channel.KindDel, Config{
		Trials:     30,
		Seed:       6,
		DropWeight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Violations != 0 {
		t.Errorf("tight protocol violated safety under random drops: %d", est.Violations)
	}
	if est.Trials != 30 {
		t.Errorf("Trials = %d", est.Trials)
	}
	if est.String() == "" {
		t.Error("empty String()")
	}
}

func TestEmptyEstimateRates(t *testing.T) {
	t.Parallel()
	var e Estimate
	if e.ViolationRate() != 0 || e.CompletionRate() != 0 || e.Goodput() != 0 {
		t.Error("zero estimate has nonzero rates")
	}
}

func TestModelDrivenEstimate(t *testing.T) {
	t.Parallel()
	// A quantitative channel model instead of the adversarial schedule:
	// the tight protocol under 20% i.i.d. loss completes every trial
	// (retransmissions draw fresh decisions) without violations, and the
	// goodput accounting is populated and bounded by the lock-step ideal.
	model := chanmodel.MustParse("iid-loss(p=0.2)")
	est, err := Run(alphaproto.MustNew(3), seq.FromInts(1, 2, 0), model.Kind(), Config{
		Trials: 40,
		Seed:   11,
		Model:  model,
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Violations != 0 {
		t.Errorf("tight protocol violated safety under iid-loss: %d", est.Violations)
	}
	if est.Completed != est.Trials {
		t.Errorf("completed %d/%d (stalled %d)", est.Completed, est.Trials, est.Stalled)
	}
	if est.Steps == 0 || est.Items != 3*est.Trials {
		t.Errorf("accounting: Steps=%d Items=%d want Items=%d", est.Steps, est.Items, 3*est.Trials)
	}
	if g := est.Goodput(); g <= 0 || g > 0.25 {
		t.Errorf("goodput %.4f outside (0, 0.25] (lock-step ideal is 1 item / 4 steps)", g)
	}
}

func TestModelDeterministicAcrossParallelism(t *testing.T) {
	t.Parallel()
	model := chanmodel.MustParse("ge(pgb=0.1,pbg=0.4,lg=0.02,lb=0.8)")
	run := func(par int) Estimate {
		est, err := Run(alphaproto.MustNew(3), seq.FromInts(0, 1, 2), model.Kind(), Config{
			Trials: 24, Seed: 3, Model: model, Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	if a, b := run(1), run(8); a != b {
		t.Errorf("estimate depends on worker count: %+v vs %+v", a, b)
	}
}

func TestModelKindMismatchRejected(t *testing.T) {
	t.Parallel()
	model := chanmodel.MustParse("iid-loss(p=0.2)")
	if _, err := Run(alphaproto.MustNew(2), seq.FromInts(0), channel.KindDup, Config{
		Trials: 1, Model: model,
	}); err == nil {
		t.Error("loss model on a dup channel accepted")
	}
	if _, err := Run(alphaproto.MustNew(2), seq.FromInts(0), channel.KindDel, Config{
		Trials: 1, Model: model,
		NewAdversary: func(int) sim.Adversary { return sim.NewRoundRobin() },
	}); err == nil {
		t.Error("Model together with NewAdversary accepted")
	}
}
