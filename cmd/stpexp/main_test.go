package main

import (
	"bytes"
	"strings"
	"testing"

	"seqtx/internal/expt"
)

// stpexp runs one command line in process and returns its exit code and
// output.
func stpexp(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestEveryExperiment runs T1–T10 as plain tables and as markdown: each
// experiment prints its header and at least one table.
func TestEveryExperiment(t *testing.T) {
	for _, c := range []struct{ flag, header string }{{"", "=== "}, {"-markdown", "### "}} {
		code, out, errs := stpexp(t, strings.Fields(c.flag)...)
		if code != 0 {
			t.Fatalf("stpexp %s: exit %d\nstderr:\n%s", c.flag, code, errs)
		}
		for _, e := range expt.All() {
			if !strings.Contains(out, c.header+e.ID+" — "+e.Title) {
				t.Errorf("stpexp %s: no header for %s", c.flag, e.ID)
			}
		}
	}
}

// TestOne runs one experiment and lists them all.
func TestOne(t *testing.T) {
	code, out, _ := stpexp(t, "-t", "T1")
	if code != 0 || !strings.Contains(out, "=== T1 — ") || strings.Contains(out, "=== T2 ") || !strings.Contains(out, "5   326 ") {
		t.Errorf("stpexp -t T1: exit %d; want 0 and T1 alone with alpha(5) = 326:\n%s", code, out)
	}
	code, out, _ = stpexp(t, "-list")
	if code != 0 || strings.Count(out, "\n") != len(expt.All()) {
		t.Errorf("stpexp -list: exit %d; want 0 and one line an experiment:\n%s", code, out)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-t T99", `unknown experiment "T99"`},
		{"-no-such-flag", "flag provided but not defined"},
	} {
		if code, _, errs := stpexp(t, strings.Fields(c.args)...); code != 2 || !strings.Contains(errs, c.want) {
			t.Errorf("stpexp %s: exit %d, stderr %q; want exit 2 naming %q", c.args, code, errs, c.want)
		}
	}
	if code, _, errs := stpexp(t, "-h"); code != 0 || !strings.Contains(errs, "-markdown") {
		t.Errorf("stpexp -h: exit %d, stderr %q; want 0 and the flag list", code, errs)
	}
}
