package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seqtx/internal/channel"
	"seqtx/internal/mc"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
	"seqtx/internal/trace"
)

// stpsim runs one command line in process and returns its exit code and
// output.
func stpsim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// naiveWitness writes the schedule on which naive(m=2) on a dup channel
// outputs a wrong prefix of 0,1,0 (what `stpmc explore -o` writes) and
// returns its path.
func naiveWitness(t *testing.T) string {
	t.Helper()
	spec, err := registry.Protocol("naive", registry.Params{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mc.Explore(spec, seq.Seq{0, 1, 0}, channel.KindDup, mc.ExploreConfig{MaxDepth: 12, MaxStates: 1 << 17})
	if err != nil || res.Violation == nil {
		t.Fatalf("explore: err %v, violation %v", err, res.Violation)
	}
	tr := &trace.Trace{Name: spec.Name, Input: res.Violation.Input}
	for i, act := range res.Violation.Actions {
		tr.Append(trace.Entry{Time: i, Act: act})
	}
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "w.json")
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return file
}

func TestReplayWitness(t *testing.T) {
	file := naiveWitness(t)
	code, out, errs := stpsim(t, "-replay", file, "-proto", "naive", "-m", "2", "-channel", "dup")
	if code != 1 || !strings.Contains(out, "SAFETY VIOLATION") || !strings.Contains(out, "replay of ") {
		t.Errorf("exit %d, stdout:\n%s\nstderr:\n%s", code, out, errs)
	}
	// The flags build naive(m=3), not the protocol the witness names.
	code, out, errs = stpsim(t, "-replay", file, "-proto", "naive", "-m", "3", "-channel", "dup")
	if code != 2 || out != "" || !strings.Contains(errs, "was recorded for") {
		t.Errorf("-m 3: exit %d, stdout %q, stderr %q; want exit 2 naming both protocols", code, out, errs)
	}
}

func TestRunSafe(t *testing.T) {
	code, out, errs := stpsim(t, "-proto", "alpha", "-m", "3", "-input", "2,0,1", "-channel", "dup")
	if code != 0 || !strings.Contains(out, "safety     ok") || !strings.Contains(out, "complete   true") {
		t.Errorf("exit %d, stdout:\n%s\nstderr:\n%s", code, out, errs)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-max-steps", "0"},
		{"-proto", "nosuch"},
		{"-input", "0,x"},
		{"-replay", filepath.Join(t.TempDir(), "missing.json")},
		{"-workers", "2"},
	} {
		if code, out, _ := stpsim(t, args...); code != 2 || out != "" {
			t.Errorf("stpsim %v: exit %d, stdout %q; want exit 2 and no stdout", args, code, out)
		}
	}
	if code, _, errs := stpsim(t, "-h"); code != 0 || !strings.Contains(errs, "-replay") {
		t.Errorf("stpsim -h: exit %d, stderr %q; want exit 0 and the flags", code, errs)
	}
}
