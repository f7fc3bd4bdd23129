package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stpserve runs one command line in process and returns its exit code
// and output.
func stpserve(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestInprocAcceptance runs 64 concurrent sessions under burst drop:
// every tape completes with no safety violation, and the Prometheus
// snapshot counts the 64 completions.
func TestInprocAcceptance(t *testing.T) {
	prom := filepath.Join(t.TempDir(), "wire.prom")
	code, out, errs := stpserve(t, "-transport", "inproc", "-sessions", "64", "-impair", "burst-drop",
		"-require-complete", "-metrics", prom, "-metrics-format", "prom")
	if code != 0 || !strings.Contains(out, "complete=64 safety violations 0") {
		t.Fatalf("exit %d; want 0 and 64 complete with no violation\nstdout:\n%s\nstderr:\n%s", code, out, errs)
	}
	metrics, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains("\n"+string(metrics), "\nwire_sessions_completed_total 64\n") {
		t.Errorf("the snapshot does not count 64 completed sessions:\n%s", metrics)
	}
}

// TestUDPSmoke runs eight sessions over real loopback datagrams under a
// wall-clock cap: all complete, none violates safety.
func TestUDPSmoke(t *testing.T) {
	code, out, errs := stpserve(t, "-transport", "udp", "-sessions", "8", "-duration", "10s")
	if code != 0 || !strings.Contains(out, "complete=8 safety violations 0") {
		t.Errorf("exit %d; want 0 and 8 complete with no violation\nstdout:\n%s\nstderr:\n%s", code, out, errs)
	}
}

// TestDetCrossCheck runs the deterministic runner, the production engine
// under a seeded schedule, behind three impairments: sim.Accept must play
// every recorded schedule to the same tape (sim-mismatches=0), and two
// runs of one command line must print the same bytes.
func TestDetCrossCheck(t *testing.T) {
	for _, impair := range []string{"-impair dup-replay", "-impair burst-drop", "-proto stenning -impair iid-loss(p=0.2)"} {
		args := append([]string{"-transport", "det", "-sessions", "8", "-v"}, strings.Fields(impair)...)
		code, first, errs := stpserve(t, args...)
		if code != 0 || !strings.Contains(first, "sim-mismatches=0 safety violations 0") {
			t.Errorf("%s: exit %d; want 0, no mismatch, no violation\nstdout:\n%s\nstderr:\n%s", impair, code, first, errs)
		}
		if _, second, _ := stpserve(t, args...); second != first {
			t.Errorf("%s: two runs printed different bytes:\n%s\n---\n%s", impair, first, second)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-transport bogus", `unknown transport "bogus"`},
		{"-duration -1s", "-duration must be >= 0"},
		{"-transport det -proto stab -crash-preset crash-scramble-both", "-crash-preset needs a live transport"},
		{"-master nowhere", "-master must be host:port"},
		{"-no-such-flag", "flag provided but not defined"},
	} {
		if code, _, errs := stpserve(t, strings.Fields(c.args)...); code != 2 || !strings.Contains(errs, c.want) {
			t.Errorf("stpserve %s: exit %d, stderr %q; want exit 2 naming %q", c.args, code, errs, c.want)
		}
	}
	if code, _, errs := stpserve(t, "-h"); code != 0 || !strings.Contains(errs, "-require-complete") {
		t.Errorf("stpserve -h: exit %d, stderr %q; want 0 and the flag list", code, errs)
	}
}
