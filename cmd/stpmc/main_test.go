package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seqtx/internal/channel"
	"seqtx/internal/registry"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
)

// stpmc runs one command line in process and returns its exit code and
// output.
func stpmc(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestExploreWitnessReplays(t *testing.T) {
	file := filepath.Join(t.TempDir(), "w.json")
	code, out, errs := stpmc(t, "explore", "-proto", "naive", "-m", "2", "-input", "0,1,0", "-channel", "dup", "-o", file)
	if code != 1 || !strings.Contains(out, "SAFETY VIOLATION") || !strings.Contains(out, "witness written to") {
		t.Fatalf("exit %d, stdout:\n%s\nstderr:\n%s", code, out, errs)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var tr trace.Trace
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	spec, err := registry.Protocol("naive", registry.Params{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	link, err := channel.NewLinkOfKind(channel.KindDup)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.New(spec, tr.Input, link)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Accept(w, tr.Actions(), sim.Config{})
	if err != nil || res.SafetyViolation == nil {
		t.Errorf("replaying %d actions: err %v, violation %v", len(tr.Actions()), err, res.SafetyViolation)
	}
}

func TestStabilizeProven(t *testing.T) {
	code, out, errs := stpmc(t, "stabilize", "-proto", "stab", "-m", "3", "-channel", "bounded")
	if code != 0 || !strings.Contains(out, "PROVEN") {
		t.Errorf("exit %d, stdout:\n%s\nstderr:\n%s", code, out, errs)
	}
}

func TestRefuteFindsWitness(t *testing.T) {
	code, out, errs := stpmc(t, "refute", "-proto", "naive", "-m", "2", "-x1", "0,1", "-x2", "0,1,0", "-channel", "dup")
	if code != 1 || !strings.Contains(out, "COUNTEREXAMPLE") {
		t.Errorf("exit %d, stdout:\n%s\nstderr:\n%s", code, out, errs)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"explore", "-workers", "2"},
		{"explore", "-states", "0"},
		{"verify"},
		{},
	} {
		if code, out, _ := stpmc(t, args...); code != 2 || out != "" {
			t.Errorf("stpmc %v: exit %d, stdout %q; want exit 2 and no stdout", args, code, out)
		}
	}
	if code, _, errs := stpmc(t, "explore", "-h"); code != 0 || !strings.Contains(errs, "-depth") {
		t.Errorf("stpmc explore -h: exit %d, stderr %q; want exit 0 and the flags", code, errs)
	}
}
