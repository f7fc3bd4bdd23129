package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stpload runs one command line in process, its report written to a
// temporary file, and returns the exit code, the parsed report and the
// output.
func stpload(t *testing.T, args ...string) (code int, rep report, stdout, stderr string) {
	t.Helper()
	file := filepath.Join(t.TempDir(), "report.json")
	var out, errw bytes.Buffer
	code = run(append(args, "-report", file), &out, &errw)
	if data, err := os.ReadFile(file); err == nil {
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("report does not parse: %v\n%s", err, data)
		}
	}
	return code, rep, out.String(), errw.String()
}

// TestInprocSmoke is the load generator end to end: waves of 64 alpha
// sessions over an unimpaired in-process link exit 0 with a report that
// parses, no safety violation and no inbox drop.
func TestInprocSmoke(t *testing.T) {
	code, rep, out, errs := stpload(t, "-transport", "inproc", "-sessions", "64", "-duration", "200ms")
	if code != 0 || rep.Waves == 0 || rep.Violations != 0 || rep.InboxDrops != 0 {
		t.Errorf("exit %d, %d waves, %d violations, %d inbox drops\nstdout:\n%s\nstderr:\n%s",
			code, rep.Waves, rep.Violations, rep.InboxDrops, out, errs)
	}
}

// TestProgressClocked pins that fresh sends follow acknowledged progress,
// not the tick: with a one-second tick an 8-item stop-and-wait session
// still completes in well under a millisecond, so the window holds many
// whole waves. Were a fresh send to wait for a tick, a wave would need
// 7 s: the first would outlive the window and its deadline, completing
// nothing.
func TestProgressClocked(t *testing.T) {
	code, rep, out, errs := stpload(t, "-transport", "inproc", "-sessions", "64", "-tick", "1s",
		"-duration", "300ms", "-deadline", "300ms")
	if code != 0 || rep.Violations != 0 || rep.Waves < 2 || rep.Completed != rep.Sessions {
		t.Errorf("exit %d, %d violations, %d waves, %d of %d sessions complete; want 0, 0, >= 2, all\nstdout:\n%s\nstderr:\n%s",
			code, rep.Violations, rep.Waves, rep.Completed, rep.Sessions, out, errs)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-transport bogus", `unknown transport "bogus"`},
		{"-duration 0", "-duration must be > 0"},
	} {
		var out, errw bytes.Buffer
		if code := run(strings.Fields(c.args), &out, &errw); code != 2 || !strings.Contains(errw.String(), c.want) {
			t.Errorf("stpload %s: exit %d, stderr %q; want exit 2 naming %q", c.args, code, errw.String(), c.want)
		}
	}
}
