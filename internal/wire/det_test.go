package wire

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
)

// detRun runs one fresh pair of proto through DetRun under the impairment
// spec names (a preset or a channel-model spec).
func detRun(t *testing.T, proto string, params registry.Params, input seq.Seq, seed int64, impair string) DetResult {
	t.Helper()
	s, r, err := registry.Pair(proto, params, input)
	if err != nil {
		t.Fatalf("Pair(%s): %v", proto, err)
	}
	opts, err := ImpairSpec(impair, seed)
	if err != nil {
		t.Fatalf("ImpairSpec(%s): %v", impair, err)
	}
	res, err := DetRun(DetConfig{Sender: s, Receiver: r, Input: input, Seed: seed, Impair: opts})
	if err != nil {
		t.Fatalf("%s/%s seed %d: DetRun: %v", proto, impair, seed, err)
	}
	return res
}

// specOf is the spec a det run's pair of proto was built from: what
// DetResult.Accept replays the schedule against.
func specOf(t *testing.T, proto string, params registry.Params) protocol.Spec {
	t.Helper()
	spec, err := registry.Protocol(proto, params)
	if err != nil {
		t.Fatalf("Protocol(%s): %v", proto, err)
	}
	return spec
}

// TestDetRunMatchesSimulator is the subsystem's fidelity acceptance
// test: a seeded run of alphaproto on the production engine under the
// dup-replay impairment must produce an output tape byte-for-byte
// identical to the lock-step simulator replaying the same schedule on a
// dup link.
func TestDetRunMatchesSimulator(t *testing.T) {
	params := registry.Params{M: 6}
	input := seq.Seq{3, 0, 5, 1, 4, 2}
	for seed := int64(1); seed <= 20; seed++ {
		res := detRun(t, "alpha", params, input, seed, "dup-replay")
		if res.SafetyViolation != nil {
			t.Fatalf("seed %d: %v", seed, res.SafetyViolation)
		}
		if !res.Complete {
			t.Fatalf("seed %d: incomplete after %d steps: %s", seed, res.Steps, res.Output)
		}
		if err := res.Accept(specOf(t, "alpha", params)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestDetRunDeterministic: identical configs yield identical runs — the
// whole report, virtual-clock durations included, and the whole schedule.
func TestDetRunDeterministic(t *testing.T) {
	params := registry.Params{M: 4}
	input := seq.Seq{2, 0, 3, 1}
	for _, impair := range []string{"none", "reorder", "iid-loss(p=0.3)"} {
		a, b := detRun(t, "alpha", params, input, 7, impair), detRun(t, "alpha", params, input, 7, impair)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two identical det runs diverged:\n%+v\n%+v", impair, a, b)
		}
	}
}

// TestDetRunImpaired is the regression for a det run that ignored its
// impairment: behind the real Impairment a lossy link costs the run
// retransmissions and changes its schedule, reproducibly.
func TestDetRunImpaired(t *testing.T) {
	params := registry.Params{M: 6}
	input := seq.Seq{3, 0, 5, 1, 4, 2}
	for _, impair := range []string{"burst-drop", "iid-loss(p=0.3)"} {
		retransmits, differs := 0, false
		for seed := int64(1); seed <= 10; seed++ {
			clean, res := detRun(t, "alpha", params, input, seed, "none"), detRun(t, "alpha", params, input, seed, impair)
			retransmits += res.Retransmits
			differs = differs || !reflect.DeepEqual(clean.Script, res.Script)
			if again := detRun(t, "alpha", params, input, seed, impair); !reflect.DeepEqual(res, again) {
				t.Errorf("%s seed %d: two runs differ", impair, seed)
			}
			if err := res.Accept(specOf(t, "alpha", params)); err != nil {
				t.Errorf("%s seed %d: %v", impair, seed, err)
			}
		}
		if retransmits == 0 || !differs {
			t.Errorf("%s: %d retransmissions, schedule differs from the unimpaired one: %v", impair, retransmits, differs)
		}
	}
}

// TestDetRunScheduleSurvivesScratchReuse guards detLink's copy: a frame
// reaches the link as a view of the sending worker's chunk, which the next
// burst overwrites from the start, and the link must still hold every
// frame as it was sent — the scheduler delivers from it for the rest of
// the run.
func TestDetRunScheduleSurvivesScratchReuse(t *testing.T) {
	link := &detLink{seen: make(map[string]struct{})}
	mux := newMux(link, MuxConfig{}, true)
	defer mux.Close()
	w := mux.loop.workers[0]
	sent := []msg.Msg{"d:3", "d:0", "d:5", "d:1"}
	for _, mg := range sent {
		if err := w.send(1, SenderEnd, mg); err != nil {
			t.Fatalf("send: %v", err)
		}
		w.flushOut() // the chunk is empty again: the next frame lands on this one's bytes
	}
	held := link.sent[SenderEnd-1]
	if len(held) != len(sent) {
		t.Fatalf("the link holds %d frames, %d were sent", len(held), len(sent))
	}
	for i, raw := range held {
		if f, err := decodeFrame(raw); err != nil || f.Msg != sent[i] {
			t.Errorf("frame %d on the link reads %q (%v), sent as %q", i, f.Msg, err, sent[i])
		}
	}
}

// TestDetRunOtherProtocols: the production engine carries every
// registered protocol under every link impairment, and each run is a run
// of the model — sim.Accept plays its whole schedule and reaches the same
// tape and verdict. The det scheduler is a
// full dup adversary (any ever-sent message, any time), so protocols that
// are unsafe on dup channels — the paper's counterexamples — may rightly
// violate safety here; that verdict is the runner working, not failing.
func TestDetRunOtherProtocols(t *testing.T) {
	params := registry.Params{M: 4, Timeout: 8, Window: 4}
	input := seq.Seq{1, 0, 3, 2}
	impairs := []string{"none", "dup-replay", "burst-drop", "reorder", "corrupt", "partition-heal", "iid-loss(p=0.3)", "iid-dup(p=0.5)"}
	retransmits, runs := 0, 0
	for _, name := range registry.ProtocolNames() {
		for _, impair := range impairs {
			for seed := int64(1); seed <= 10; seed++ {
				res := detRun(t, name, params, input, seed, impair)
				if err := res.Accept(specOf(t, name, params)); err != nil {
					t.Errorf("%s/%s seed %d: %v", name, impair, seed, err)
				}
				retransmits += res.Retransmits
				runs++
			}
		}
	}
	if retransmits == 0 {
		t.Errorf("%d runs and not one retransmission: the timer path never ran", runs)
	}
	t.Logf("%d runs, %d retransmissions", runs, retransmits)
}

// TestDetRunRejectsTamperedScript: a clean recorded schedule with one
// delivery spliced in, at position k, of a message the sender has not yet
// sent is not a run of the model. Accept must fail and name step k; an
// acceptor that skipped the action would pass it.
func TestDetRunRejectsTamperedScript(t *testing.T) {
	params := registry.Params{M: 6}
	input := seq.Seq{3, 0, 5, 1, 4, 2}
	spec := specOf(t, "alpha", params)
	res := detRun(t, "alpha", params, input, 1, "none")
	if err := res.Accept(spec); err != nil {
		t.Fatalf("clean schedule rejected: %v", err)
	}
	// The simulator's trace of the clean schedule says at which step each
	// message is first sent; of the messages delivered to R, splice in the
	// one sent last, just before the step that sends it.
	link, err := channel.NewLinkOfKind(channel.KindDup)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.New(spec, input, link)
	if err != nil {
		t.Fatal(err)
	}
	w.StartTrace()
	if _, err := sim.Accept(w, res.Script, sim.Config{}); err != nil {
		t.Fatal(err)
	}
	firstSent := map[msg.Msg]int{}
	for i, e := range w.Trace.Entries {
		for _, m := range e.Sends {
			if _, ok := firstSent[m]; !ok {
				firstSent[m] = i
			}
		}
	}
	k, late := 0, msg.Msg("")
	for _, act := range res.Script {
		if act.Kind == trace.ActDeliver && act.Dir == channel.SToR && firstSent[act.Msg] > k {
			k, late = firstSent[act.Msg], act.Msg
		}
	}
	if k == 0 {
		t.Fatal("every delivered message was sent at the first step: nothing to splice")
	}
	tampered := slices.Insert(slices.Clone(res.Script), k, trace.Deliver(channel.SToR, late))
	res.Script = tampered
	err = res.Accept(spec)
	if want := fmt.Sprintf("sim: accept step %d: %s not enabled", k, tampered[k]); err == nil || err.Error() != want {
		t.Fatalf("tampered schedule: Accept = %v, want %q", err, want)
	}
	// A run that recorded nothing and wrote nothing matches the untouched
	// world on verdict and tape, so it must be refused outright.
	if err := (DetResult{Report: Report{Input: input}}).Accept(spec); err == nil {
		t.Fatal("empty schedule accepted")
	}
}
