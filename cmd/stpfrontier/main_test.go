package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seqtx/internal/frontier"
)

// stpfrontier runs one command line in process, its document written to
// a temporary file, and returns the exit code, the parsed document and
// the output.
func stpfrontier(t *testing.T, args ...string) (code int, doc frontier.Doc, stdout, stderr string) {
	t.Helper()
	file := filepath.Join(t.TempDir(), "frontier.json")
	var out, errw bytes.Buffer
	code = run(append(args, "-report", file), &out, &errw)
	if data, err := os.ReadFile(file); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("document does not parse: %v\n%s", err, data)
		}
	}
	return code, doc, out.String(), errw.String()
}

// TestSweeps runs two small protocol × channel-model grids. The frontier
// charts only protocols verified safe on each model's channel kind, so a
// prefix-safety violation is a regression, never frontier data: exit 0,
// a document that parses, every cell charted, and each unsafe pairing
// skipped rather than run.
func TestSweeps(t *testing.T) {
	for _, c := range []struct {
		name, args string
		cells      int
		skipped    []string // the proto × model pairings that must be skipped
	}{
		{
			name:    "loss-dup-ge",
			args:    "-protos alpha,afwz,stenning -models iid-loss(p=0.1),iid-dup(p=0.25),ge(pgb=0.05,pbg=0.5,lg=0.01,lb=0.5) -m 4 -items 4 -trials 10 -seed 1",
			cells:   8,
			skipped: []string{"afwz × iid-dup(p=0.25)"},
		},
		{
			// The FIFO-realized window-depth sweep: gobackn and selrepeat
			// across two depths on loss and Gilbert-Elliott points; the dup
			// model is skipped by the FIFO-only gating, not run.
			name:    "windowed",
			args:    "-protos gobackn,selrepeat -models iid-loss(p=0.2),ge(pgb=0.05,pbg=0.5,lg=0.01,lb=0.5),iid-dup(p=0.25) -m 4 -windows 1,16 -items 16 -trials 8 -seed 1",
			cells:   8,
			skipped: []string{"gobackn × iid-dup(p=0.25)", "selrepeat × iid-dup(p=0.25)"},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			code, doc, out, errs := stpfrontier(t, strings.Fields(c.args)...)
			if code != 0 || doc.TotalViolations != 0 || doc.TotalCells != c.cells || len(doc.Cells) != c.cells {
				t.Fatalf("exit %d, %d violations, %d cells (%d charted); want 0, 0, %d\nstdout:\n%s\nstderr:\n%s",
					code, doc.TotalViolations, doc.TotalCells, len(doc.Cells), c.cells, out, errs)
			}
			if len(doc.Skipped) != len(c.skipped) {
				t.Fatalf("skipped %q, want %q", doc.Skipped, c.skipped)
			}
			for i, want := range c.skipped {
				if !strings.HasPrefix(doc.Skipped[i], want+":") {
					t.Errorf("skipped[%d] = %q, want %q", i, doc.Skipped[i], want)
				}
			}
		})
	}
}

// TestWritesOnlyWhatItIsAsked checks that a sweep without -report writes
// no file (the committed BENCH_frontier.json is never rewritten by
// default), and that "-" sends the markdown tables to stdout.
func TestWritesOnlyWhatItIsAsked(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var out, errw bytes.Buffer
	if code := run(strings.Fields("-protos alpha -models iid-loss(p=0.1) -m 4 -trials 2 -markdown -"), &out, &errw); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, errw.String())
	}
	if !strings.Contains(out.String(), "| alpha |") {
		t.Errorf("-markdown - printed no table row for alpha:\n%s", out.String())
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("a run without -report wrote %v", files)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-m x", `-m: bad value "x"`},
		{"-windows ,", "-windows: empty axis"},
		{"-models bogus(p=1)", "bogus"},
		{"-protos naive", "naive"},
	} {
		if code, _, _, errs := stpfrontier(t, strings.Fields(c.args)...); code != 2 || !strings.Contains(errs, c.want) {
			t.Errorf("stpfrontier %s: exit %d, stderr %q; want exit 2 naming %q", c.args, code, errs, c.want)
		}
	}
	if code, _, _, errs := stpfrontier(t, "-h"); code != 0 || !strings.Contains(errs, "-windows") {
		t.Errorf("stpfrontier -h: exit %d, stderr %q; want 0 and the flag list", code, errs)
	}
}
