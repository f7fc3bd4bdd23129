package wire

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"seqtx/internal/chanmodel"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
)

func TestImpairSpecResolution(t *testing.T) {
	// Preset names still resolve to presets.
	opts, err := ImpairSpec("burst-drop", 1)
	if err != nil {
		t.Fatalf("ImpairSpec(burst-drop): %v", err)
	}
	if opts.Model != nil || len(opts.Spec.Bursts) == 0 {
		t.Errorf("burst-drop resolved to %+v, want the preset", opts)
	}
	// Model specs resolve to models with the seed threaded through.
	opts, err = ImpairSpec("iid-loss(p=0.1)", 7)
	if err != nil {
		t.Fatalf("ImpairSpec(iid-loss): %v", err)
	}
	if opts.Model == nil || opts.Model.Spec() != "iid-loss(p=0.1)" || opts.ModelSeed != 7 {
		t.Errorf("model spec resolved to %+v", opts)
	}
	if opts.ImpairName() != "iid-loss(p=0.1)" {
		t.Errorf("ImpairName = %q", opts.ImpairName())
	}
	// Bad names and bad specs both fail, with distinct error shapes.
	if _, err := ImpairSpec("no-such-preset", 1); err == nil {
		t.Error("unknown preset accepted")
	}
	if _, err := ImpairSpec("iid-loss(p=7)", 1); err == nil {
		t.Error("out-of-range model spec accepted")
	}
	// Crash presets stay rejected on the link.
	if _, err := ImpairSpec("crash-sender", 1); err == nil {
		t.Error("process-fault preset accepted as a link impairment")
	}
}

// TestModelStageFrameLevel drives raw frames through a model
// impairment: the surviving sequence must agree exactly with the
// reference schedule (drop → missing, dup → doubled, in offer order),
// and the ack direction must pass through untouched.
func TestModelStageFrameLevel(t *testing.T) {
	const n = 512
	model := chanmodel.MustParse("iid-loss(p=0.3)")
	inner := NewInproc(n*2+16, nil)
	tr, err := NewImpairment(inner, Options{Model: model, ModelSeed: 42, RecordModel: n}, nil)
	if err != nil {
		t.Fatalf("NewImpairment: %v", err)
	}
	for i := 0; i < n; i++ {
		sendN(t, tr, SenderEnd, []byte{byte(i), byte(i >> 8)})
	}
	want := chanmodel.ScheduleBytes(model, 42, n)
	if got := tr.ModelRealized(); !bytes.Equal(got, want) {
		t.Fatalf("realized decisions diverge from reference schedule:\n got %q\nwant %q", got, want)
	}
	got := drain(inner.Recv(ReceiverEnd))
	var expect [][]byte
	for i := 0; i < n; i++ {
		f := []byte{byte(i), byte(i >> 8)}
		switch chanmodel.Decision(want[i]) {
		case chanmodel.Pass:
			expect = append(expect, f)
		case chanmodel.Dup:
			expect = append(expect, f, f)
		}
	}
	if len(got) != len(expect) {
		t.Fatalf("%d frames delivered, want %d", len(got), len(expect))
	}
	for i := range got {
		if !bytes.Equal(got[i], expect[i]) {
			t.Fatalf("frame %d = %v, want %v", i, got[i], expect[i])
		}
	}
	// Ack direction: no model decisions, full passthrough.
	sendN(t, tr, ReceiverEnd, []byte{0xaa}, []byte{0xbb})
	if acks := drain(inner.Recv(SenderEnd)); len(acks) != 2 {
		t.Errorf("R→S delivered %d frames, want 2 (model must not touch acks)", len(acks))
	}
	if extra := tr.ModelRealized(); len(extra) != n {
		t.Errorf("ack frames consumed model decisions: %d recorded, want %d", len(extra), n)
	}
}

// TestModelStageBatch pins that batched sends make the same per-frame
// decisions as lone sends.
func TestModelStageBatch(t *testing.T) {
	const n = 256
	model := chanmodel.MustParse("iid-dup(p=0.4)")
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = []byte{byte(i)}
	}
	run := func(batch bool) ([][]byte, []byte) {
		inner := NewInproc(n*2+16, nil)
		tr, err := NewImpairment(inner, Options{Model: model, ModelSeed: 9, RecordModel: n}, nil)
		if err != nil {
			t.Fatalf("NewImpairment: %v", err)
		}
		if batch {
			if err := tr.SendBatch(SenderEnd, frames); err != nil {
				t.Fatalf("SendBatch: %v", err)
			}
		} else {
			sendN(t, tr, SenderEnd, frames...)
		}
		// Batched survivors arrive packed in batch blobs; unpack so both
		// paths compare at the frame level.
		var flat [][]byte
		for _, blob := range drain(inner.Recv(ReceiverEnd)) {
			if IsBatch(blob) {
				if err := SplitBatch(blob, func(frame []byte) error {
					cp := append([]byte(nil), frame...)
					flat = append(flat, cp)
					return nil
				}); err != nil {
					t.Fatalf("SplitBatch: %v", err)
				}
				continue
			}
			flat = append(flat, blob)
		}
		return flat, tr.ModelRealized()
	}
	lone, loneDec := run(false)
	batched, batchDec := run(true)
	if !bytes.Equal(loneDec, batchDec) {
		t.Fatalf("batched decisions diverge from lone sends")
	}
	if len(lone) != len(batched) {
		t.Fatalf("lone delivered %d, batch %d", len(lone), len(batched))
	}
	for i := range lone {
		if !bytes.Equal(lone[i], batched[i]) {
			t.Fatalf("frame %d: lone %v, batch %v", i, lone[i], batched[i])
		}
	}
}

// TestModelWireStatisticalRate checks the wire realization's empirical
// drop rate against the model parameter (5-sigma band).
func TestModelWireStatisticalRate(t *testing.T) {
	const n = 20000
	model := chanmodel.MustParse("ge(pgb=0.05,pbg=0.5,lg=0.01,lb=0.5)")
	inner := NewInproc(n+16, nil)
	tr, err := NewImpairment(inner, Options{Model: model, ModelSeed: 3}, nil)
	if err != nil {
		t.Fatalf("NewImpairment: %v", err)
	}
	delivered := 0
	for i := 0; i < n; i++ {
		if err := tr.Send(SenderEnd, []byte{byte(i)}); err != nil {
			t.Fatalf("Send: %v", err)
		}
		delivered += len(drain(inner.Recv(ReceiverEnd)))
	}
	dropRate := 1 - float64(delivered)/float64(n)
	want := model.DropRate()
	// Markov-correlated decisions: inflate the binomial CI 4×.
	ci := 4 * 5 * math.Sqrt(want*(1-want)/float64(n))
	if math.Abs(dropRate-want) > ci {
		t.Errorf("wire empirical drop rate %.5f, want %.5f ± %.5f", dropRate, want, ci)
	}
}

// TestModelScheduleSimWireIdentical is THE cross-realization pin: the
// same (model, seed) must produce a byte-identical delivery schedule in
// the simulator adapter and on the live wire. Both realizations record
// the decisions they actually consumed; both must equal the reference
// stream, and hence each other.
func TestModelScheduleSimWireIdentical(t *testing.T) {
	for _, ms := range []string{"iid-loss(p=0.25)", "iid-dup(p=0.3)", "k-del(k=2,n=8)"} {
		model := chanmodel.MustParse(ms)
		const seed = 1234

		// Sim realization: scripted-delivery adversary over fresh worlds.
		adv := chanmodel.NewAdversary(model, seed)
		adv.RecordRealized(1 << 16)
		for run := 0; run < 8; run++ {
			spec, err := registry.Protocol("alpha", registry.Params{M: 4})
			if err != nil {
				t.Fatal(err)
			}
			x := seq.Seq{0, 1, 2, 3}
			if _, err := sim.RunProtocol(spec, x, model.Kind(), adv,
				sim.Config{MaxSteps: 40000, StopWhenComplete: true}); err != nil {
				t.Fatal(err)
			}
			adv.Reset()
		}
		simDec := adv.Realized()
		if len(simDec) < 16 {
			t.Fatalf("%s: sim realized only %d decisions", ms, len(simDec))
		}

		// Wire realization: model impairment consuming the same stream.
		inner := NewInproc(4*len(simDec)+16, nil)
		tr, err := NewImpairment(inner, Options{Model: model, ModelSeed: seed, RecordModel: len(simDec)}, nil)
		if err != nil {
			t.Fatalf("NewImpairment: %v", err)
		}
		for i := 0; i < len(simDec); i++ {
			sendN(t, tr, SenderEnd, []byte{byte(i)})
		}
		wireDec := tr.ModelRealized()

		ref := chanmodel.ScheduleBytes(model, seed, len(simDec))
		if !bytes.Equal(simDec, ref) {
			t.Errorf("%s: sim decisions diverge from reference\n got %q\nwant %q", ms, simDec, ref)
		}
		if !bytes.Equal(wireDec, ref) {
			t.Errorf("%s: wire decisions diverge from reference\n got %q\nwant %q", ms, wireDec, ref)
		}
		if !bytes.Equal(simDec, wireDec) {
			t.Errorf("%s: sim and wire delivery schedules differ", ms)
		}
	}
}

// TestModelEndToEndSessions runs live mux sessions through a model
// impairment: all sessions complete (retransmission beats loss) with
// zero safety violations.
func TestModelEndToEndSessions(t *testing.T) {
	model := chanmodel.MustParse("iid-loss(p=0.2)")
	inner := NewInproc(0, nil)
	tr, err := NewImpairment(inner, Options{Model: model, ModelSeed: 5}, nil)
	if err != nil {
		t.Fatalf("NewImpairment: %v", err)
	}
	mux := NewMuxConfig(tr, MuxConfig{})
	defer mux.Close()
	for id := uint64(1); id <= 8; id++ {
		x := seq.Seq{0, 1, 2, 3}
		s, r, err := registry.Pair("alpha", registry.Params{M: 4}, x)
		if err != nil {
			t.Fatalf("Pair: %v", err)
		}
		sess, err := mux.NewSession(SessionConfig{
			ID: id, Sender: s, Receiver: r, Input: x,
			Tick: time.Millisecond, Deadline: 20 * time.Second,
		})
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		rep := sess.Run(context.Background())
		if rep.SafetyViolation != nil {
			t.Fatalf("session %d: safety violation under iid-loss: %v", id, rep.SafetyViolation)
		}
		if !rep.Complete {
			t.Errorf("session %d: incomplete", id)
		}
	}
}
