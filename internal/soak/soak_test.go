package soak

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
	"seqtx/internal/trace"
)

// registryParamsM3 is the alpha-protocol parameterization the tests use.
var registryParamsM3 = registry.Params{M: 3}

// testConfig keeps campaign tests fast while leaving every verdict
// mechanism (watchdog, audit, shrink) armed.
func testConfig() Config {
	return Config{
		MaxSteps:         2500,
		ProgressDeadline: 400,
		MaxWallClock:     30 * time.Second,
		MaxShrinkReplays: 300,
	}
}

// TestStandardCampaignExpectations is the headline acceptance test: the
// full matrix runs deterministically, every cell that promised to
// survive does (the tight protocol under every in-model plan included),
// and the out-of-model plans produce at least one captured, shrunk,
// replay-confirmed counterexample on a weaker protocol.
func TestStandardCampaignExpectations(t *testing.T) {
	cmp := StandardCampaign(1, 1)
	cmp.Config = testConfig()
	rep := cmp.Run()
	if !rep.Ok() {
		for _, run := range rep.Unexpected() {
			t.Errorf("unexpected violation: %s: %s (%s)", run.ID(), run.Violation, run.Error)
		}
		t.Fatalf("campaign not OK: %+v", rep.Summary)
	}
	if rep.Summary.Total != len(cmp.Cases) {
		t.Fatalf("summary total %d != %d cases", rep.Summary.Total, len(cmp.Cases))
	}

	// The tight protocol must come out clean on every in-model cell.
	for _, run := range rep.Runs {
		if run.Protocol == "alpha" && run.InModel {
			if run.Outcome != OutcomeComplete {
				t.Errorf("alpha in-model cell %s: outcome %s (%s)", run.ID(), run.Outcome, run.Error)
			}
			if run.Audit != auditOK && run.Audit != auditSkipped {
				t.Errorf("alpha in-model cell %s: audit %s", run.ID(), run.Audit)
			}
		}
	}

	// At least one out-of-model plan must yield a shrunk counterexample on
	// a weaker protocol, and shrinking must actually shrink on average
	// (crash/corrupt traces carry long fair prefixes).
	var shrunkOutOfModel int
	for _, run := range rep.Runs {
		cex := run.Counterexample
		if cex == nil || run.InModel {
			continue
		}
		if run.Protocol == "alpha" {
			continue // alpha failing even out-of-model would be news, but not this test's
		}
		if !cex.ReplayOK {
			t.Errorf("%s: shrunk counterexample does not replay", run.ID())
			continue
		}
		if cex.ShrunkSteps > cex.OriginalSteps {
			t.Errorf("%s: shrink grew the trace (%d -> %d)", run.ID(), cex.OriginalSteps, cex.ShrunkSteps)
		}
		shrunkOutOfModel++
	}
	if shrunkOutOfModel == 0 {
		t.Error("no out-of-model plan produced a replayable shrunk counterexample")
	}
	if rep.Summary.ExpectedViolations == 0 {
		t.Error("campaign found no expected violations: the fault menu is toothless")
	}
}

// TestCampaignDeterminism pins that two runs of the same seeded campaign
// produce byte-identical JSON reports (the worker pool must not leak
// scheduling into the artifact).
func TestCampaignDeterminism(t *testing.T) {
	t.Parallel()
	render := func(workers int) []byte {
		cmp := SmokeCampaign(3)
		cmp.Config = testConfig()
		cmp.Config.Workers = workers
		var buf bytes.Buffer
		if err := cmp.Run().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(1), render(4)
	if !bytes.Equal(a, b) {
		t.Fatal("same campaign, different reports across worker counts")
	}
}

// TestCrashCounterexampleShrinksAndReplays runs the one cell known to
// break stenning (receiver crash-restart on a dup channel) and checks
// the full capture → shrink → replay chain on it.
func TestCrashCounterexampleShrinksAndReplays(t *testing.T) {
	t.Parallel()
	c := Case{
		Protocol:  "stenning",
		Input:     seq.FromInts(2, 0, 1),
		Kind:      channel.KindDup,
		Adversary: "random",
		Plan:      "crash-receiver",
		Seed:      7,
		Fair:      true,
		MayFail:   true,
	}
	rep := RunCase(c, testConfig())
	if rep.Outcome != OutcomeSafety {
		t.Fatalf("outcome = %s (%s), want %s", rep.Outcome, rep.Error, OutcomeSafety)
	}
	if !rep.Expected {
		t.Fatal("a MayFail violation must be expected")
	}
	cex := rep.Counterexample
	if cex == nil {
		t.Fatal("no counterexample captured")
	}
	if !cex.ReplayOK {
		t.Fatal("shrunk counterexample does not replay")
	}
	if cex.ShrunkSteps >= cex.OriginalSteps {
		t.Errorf("ddmin removed nothing (%d -> %d steps)", cex.OriginalSteps, cex.ShrunkSteps)
	}
	// Replay the artifact once more ourselves: the trace alone (plus the
	// case coordinates) must reproduce the violation.
	w, err := Replay(c, cex.Trace.Actions())
	if err != nil {
		t.Fatal(err)
	}
	if w.SafetyViolation == nil {
		t.Fatal("replaying the reported trace did not reproduce the violation")
	}
	// And it must survive a JSON round trip (the report is the artifact):
	// the decoded trace replays to the same violation.
	data, err := json.Marshal(cex.Trace)
	if err != nil {
		t.Fatal(err)
	}
	var decoded trace.Trace
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	w2, err := Replay(c, decoded.Actions())
	if err != nil {
		t.Fatal(err)
	}
	if w2.SafetyViolation == nil {
		t.Fatal("JSON-round-tripped trace did not reproduce the violation")
	}
}

// silentSender never transmits anything; silentReceiver never writes.
// The pair is a legal protocol that simply fails liveness — the probe
// for the progress watchdog.
type silentSender struct{}

func (silentSender) Step(protocol.Event) []msg.Msg { return nil }
func (silentSender) Moved() bool                   { return false }
func (silentSender) Alphabet() msg.Alphabet        { return msg.Alphabet{} }
func (silentSender) Done() bool                    { return false }
func (s silentSender) Clone() protocol.Sender      { return s }
func (silentSender) Key() string                   { return "silent" }

type silentReceiver struct{}

func (silentReceiver) Step(protocol.Event) ([]msg.Msg, seq.Seq) { return nil, nil }
func (silentReceiver) Alphabet() msg.Alphabet                   { return msg.Alphabet{} }
func (r silentReceiver) Clone() protocol.Receiver               { return r }
func (silentReceiver) Key() string                              { return "silent" }

func silentSpec() protocol.Spec {
	return protocol.Spec{
		Name:        "silent",
		Description: "sends nothing, writes nothing (watchdog probe)",
		NewSender:   func(seq.Seq) (protocol.Sender, error) { return silentSender{}, nil },
		NewReceiver: func() (protocol.Receiver, error) { return silentReceiver{}, nil },
	}
}

// TestWatchdogReportsLivenessStall feeds the campaign a protocol that
// never makes progress on a fair schedule: the progress watchdog must
// kill the run and report a liveness violation, not burn the step budget
// or hang.
func TestWatchdogReportsLivenessStall(t *testing.T) {
	t.Parallel()
	c := Case{
		Spec:      silentSpec(),
		Input:     seq.FromInts(0, 1),
		Kind:      channel.KindDup,
		Adversary: "roundrobin",
		Plan:      "none",
		Seed:      1,
		Fair:      true,
	}
	cfg := testConfig()
	rep := RunCase(c, cfg)
	if rep.Outcome != OutcomeLivenessStall {
		t.Fatalf("outcome = %s (%s), want %s", rep.Outcome, rep.Error, OutcomeLivenessStall)
	}
	if rep.Violation != ViolationLiveness {
		t.Fatalf("violation = %q, want %q", rep.Violation, ViolationLiveness)
	}
	if rep.Expected {
		t.Fatal("an unprovoked liveness failure must be unexpected")
	}
	if rep.Steps >= cfg.MaxSteps {
		t.Fatalf("watchdog never fired: run consumed the whole budget (%d steps)", rep.Steps)
	}
	// The same cell on an unfair schedule owes nothing: no violation.
	c.Fair = false
	rep = RunCase(c, cfg)
	if rep.Outcome != OutcomeUnfairStall || rep.Violation != "" {
		t.Fatalf("unfair stall misclassified: outcome %s, violation %q", rep.Outcome, rep.Violation)
	}
}

// TestWallClockCutIsInconclusive pins the watchdog ordering end to end:
// a run cut by the wall-clock budget — even on a fair schedule with a
// protocol that would eventually have been convicted of a liveness stall
// — is classified inconclusive, never a liveness verdict. The budget is
// polled every 256 steps, so with ProgressDeadline > 255 the wall-clock
// cut (step 255) always lands before the stall watchdog could fire.
func TestWallClockCutIsInconclusive(t *testing.T) {
	t.Parallel()
	c := Case{
		Spec:      silentSpec(),
		Input:     seq.FromInts(0, 1),
		Kind:      channel.KindDup,
		Adversary: "roundrobin",
		Plan:      "none",
		Seed:      1,
		Fair:      true, // fair: a stall verdict WOULD be a liveness violation
	}
	cfg := testConfig()
	cfg.MaxWallClock = 1 // 1ns: exhausted by the first poll
	rep := RunCase(c, cfg)
	if rep.Outcome != OutcomeWallClock {
		t.Fatalf("outcome = %s (%s), want %s", rep.Outcome, rep.Error, OutcomeWallClock)
	}
	if rep.Violation != "" {
		t.Fatalf("wall-clock cut charged a violation: %q", rep.Violation)
	}
	if !rep.Expected {
		t.Fatal("inconclusive cut must be expected (not a campaign failure)")
	}
	if rep.CutStep != 255 {
		t.Fatalf("CutStep = %d, want 255 (first wall-clock poll)", rep.CutStep)
	}
	// Through the report: the cut lands in the inconclusive bucket and
	// does not fail the campaign — Ok() is what drives stpsoak's exit 0.
	report := Report{Campaign: "wallclock-probe", Runs: []RunReport{rep}}
	report.Finalize()
	if report.Summary.Inconclusive != 1 || report.Summary.UnexpectedViolations != 0 {
		t.Fatalf("summary = %+v, want 1 inconclusive, 0 unexpected", report.Summary)
	}
	if !report.Ok() {
		t.Fatal("Ok() = false: a wall-clock cut must not fail the campaign")
	}
	// The cut step survives the JSON artifact (replay contract).
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"cut_step": 255`)) && !bytes.Contains(data, []byte(`"cut_step":255`)) {
		t.Fatalf("cut_step missing from JSON: %s", data)
	}
}

// TestMechanicalErrorsSurface pins that unknown names come back as
// mechanical errors, never as panics or silent successes.
func TestMechanicalErrorsSurface(t *testing.T) {
	t.Parallel()
	for _, c := range []Case{
		{Protocol: "no-such-protocol", Input: seq.FromInts(0), Kind: channel.KindDup, Adversary: "roundrobin"},
		{Protocol: "alpha", Params: registryParamsM3, Input: seq.FromInts(2, 0, 1), Kind: channel.KindDup, Adversary: "no-such-adversary"},
		{Protocol: "alpha", Params: registryParamsM3, Input: seq.FromInts(2, 0, 1), Kind: channel.KindDup, Adversary: "roundrobin", Plan: "no-such-plan"},
	} {
		rep := RunCase(c, testConfig())
		if rep.Outcome != OutcomeError || rep.Violation != ViolationMechanical || rep.Expected {
			t.Errorf("%s: outcome %s violation %q expected %v, want surfaced mechanical error",
				c.ID(), rep.Outcome, rep.Violation, rep.Expected)
		}
		if !strings.Contains(rep.Error, "unknown") {
			t.Errorf("%s: error %q does not name the unknown component", c.ID(), rep.Error)
		}
	}
}
