package soak

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/seq"
	"seqtx/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenReport hand-builds a report exercising every serialized field:
// a clean run, a wall-clock cut (CutStep), and a safety violation with a
// shrunk, replay-confirmed counterexample trace.
func goldenReport() *Report {
	cex := &Counterexample{
		OriginalSteps: 9,
		ShrunkSteps:   3,
		Replays:       17,
		ReplayOK:      true,
		Trace: &trace.Trace{
			Name:  "stenning",
			Input: seq.FromInts(2, 0),
			Entries: []trace.Entry{
				{Time: 0, Act: trace.TickS(), Sends: []msg.Msg{"d:0:2"}},
				{Time: 1, Act: trace.CrashR()},
				{Time: 2, Act: trace.Deliver(channel.SToR, "d:0:2"),
					Sends: []msg.Msg{"a:0"}, Writes: seq.FromInts(2)},
			},
		},
	}
	r := &Report{
		Campaign: "golden",
		Runs: []RunReport{
			{
				Protocol: "alpha", Channel: "dup", Adversary: "roundrobin",
				Plan: "none", Seed: 42, Fair: true, InModel: true,
				Outcome: OutcomeComplete, Expected: true,
				Steps: 120, Output: "2 0", Audit: "ok",
			},
			{
				Protocol: "alpha", Channel: "del", Adversary: "random",
				Plan: "none", Seed: 43, Fair: true, InModel: true,
				Outcome: OutcomeWallClock, Expected: true,
				Steps: 255, CutStep: 255, Audit: "ok",
			},
			{
				Protocol: "stenning", Channel: "dup", Adversary: "random",
				Plan: "crash-receiver", Seed: 7, Fair: true, MayFail: true,
				Outcome: OutcomeSafety, Violation: ViolationSafety,
				Expected: true, Steps: 9, Output: "2 2",
				Error:          "output is not a prefix of the input",
				Counterexample: cex,
			},
		},
	}
	r.Finalize()
	return r
}

// TestReportGoldenRoundTrip pins the report wire format: the indented
// JSON stpsoak writes (cliutil.WriteJSON) must reproduce the checked-in
// artifact byte for byte (the format is an interchange contract —
// recorded campaigns are diffed and replayed), and unmarshalling the
// artifact must reconstruct the report exactly.
func TestReportGoldenRoundTrip(t *testing.T) {
	want := goldenReport()
	data, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.NewBuffer(append(data, '\n'))
	path := filepath.Join("testdata", "report_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("report JSON drifted from golden file (regenerate with -update-golden if intended)\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), golden)
	}
	var got Report
	if err := json.Unmarshal(golden, &got); err != nil {
		t.Fatalf("golden file does not unmarshal: %v", err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Errorf("round trip lost information:\ngot:  %+v\nwant: %+v", got, *want)
	}
}

// TestCampaignVerdictCountsWorkerIndependent pins that the campaign's
// verdict counts do not depend on -workers: the pool only changes who
// executes a cell, never what the cell concludes. (A stronger byte-level
// check lives in TestCampaignDeterminism; this one isolates the verdict
// counters so a formatting change can't mask a scheduling leak.)
func TestCampaignVerdictCountsWorkerIndependent(t *testing.T) {
	t.Parallel()
	summaries := make([]Summary, 0, 4)
	for _, workers := range []int{1, 2, 3, 8} {
		cmp := SmokeCampaign(3)
		cmp.Config = testConfig()
		cmp.Config.Workers = workers
		summaries = append(summaries, cmp.Run().Summary)
	}
	for i, s := range summaries[1:] {
		if s != summaries[0] {
			t.Errorf("workers=%d summary %+v differs from workers=1 %+v",
				[]int{2, 3, 8}[i], s, summaries[0])
		}
	}
}
