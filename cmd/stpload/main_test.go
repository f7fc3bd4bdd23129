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

// smoke is one stpload command line and what its exit and report must
// show beyond exit 0 and zero safety violations, which every row needs.
type smoke struct {
	name, args string
	check      func(t *testing.T, rep report, metrics string)
}

// smokes are the rows of TestSmokes. Under the ci build tag, ci_test.go
// adds the heavy rows and those that assert a wall-clock figure; tier-1
// runs the rest.
var smokes = []smoke{
	{
		// A pipelined protocol on the live wire under a bursty channel:
		// every go-back-n session at window depth 16 completes.
		name: "windowed",
		args: "-proto gobackn -window 16 -impair ge(pgb=0.05,pbg=0.5,lg=0.01,lb=0.5) -sessions 32 -duration 200ms -items 32 -m 32",
		check: func(t *testing.T, rep report, _ string) {
			allComplete(t, rep, 1)
		},
	},
	{
		// A progress event (attach, an ack that moves the sender) is a
		// fill: spontaneous steps while each sends a fresh frame and moves
		// the sender, so a W = 16 window opens whole at attach and each
		// new ack refills its slot. With an hour's tick nothing else
		// sends: many waves complete with no retransmission and exactly
		// one data frame and one ack an item.
		name: "fill",
		args: "-proto selrepeat -window 16 -m 64 -items 64 -sessions 64 -tick 1h -duration 300ms -deadline 300ms",
		check: func(t *testing.T, rep report, _ string) {
			allComplete(t, rep, 2)
			if rep.Retransmits != 0 || rep.FramesTx != 2*rep.ItemsDelivered {
				t.Errorf("%d retransmits, %d frames for %d items; want 0 and two frames an item",
					rep.Retransmits, rep.FramesTx, rep.ItemsDelivered)
			}
		},
	},
	{
		// Crash-restart chaos: one wave of 32 supervised stab sessions,
		// endpoints killed mid-run and restarted into scrambled state.
		// No bad write may fall outside a recovery window, crashes and
		// scrambled restarts must fire, and a crashed incarnation is not
		// a session: none may count as unfinished. The digest
		// fingerprints the schedule this run realized; a live schedule
		// depends on timing, so it is not compared across runs.
		name: "chaos",
		args: "-proto stab -crash-preset crash-scramble-both -restart-policy scramble -sessions 32 -duration 1ms -tick 500us",
		check: func(t *testing.T, rep report, metrics string) {
			chaosFired(t, rep)
			for _, line := range []string{
				"wire_stabilize_post_violations_total 0",
				"wire_sessions_unfinished_total 0",
				"# TYPE wire_stabilize_time_seconds histogram",
			} {
				if !strings.Contains("\n"+metrics, "\n"+line+"\n") {
					t.Errorf("the metrics snapshot has no line %q", line)
				}
			}
		},
	},
}

// TestSmokes runs each row of smokes in process, with a Prometheus
// snapshot written beside the report.
func TestSmokes(t *testing.T) {
	for _, c := range smokes {
		t.Run(c.name, func(t *testing.T) {
			prom := filepath.Join(t.TempDir(), "metrics.prom")
			code, rep, out, errs := stpload(t, append(strings.Fields(c.args), "-metrics", prom)...)
			if code != 0 || rep.Violations != 0 || rep.PostStabViolations != 0 {
				t.Fatalf("exit %d, %d violations, %d post-stabilization violations; want 0, 0, 0\nstdout:\n%s\nstderr:\n%s",
					code, rep.Violations, rep.PostStabViolations, out, errs)
			}
			metrics, err := os.ReadFile(prom)
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, rep, string(metrics))
		})
	}
}

// allComplete fails unless the run held at least waves waves and every
// session of every wave completed.
func allComplete(t *testing.T, rep report, waves int) {
	t.Helper()
	if rep.Waves < waves || rep.Completed != rep.Sessions {
		t.Errorf("%d waves, %d of %d sessions complete; want >= %d waves, all complete",
			rep.Waves, rep.Completed, rep.Sessions, waves)
	}
}

// chaosFired fails unless crashes and scrambled restarts fired, restarts
// made incarnations beyond the sessions, and the report carries a
// 16-hex-digit crash-schedule digest.
func chaosFired(t *testing.T, rep report) {
	t.Helper()
	if rep.Crashes == 0 || rep.ScrambledRestarts == 0 || rep.Incarnations <= rep.Sessions || len(rep.CrashScheduleDigest) != 16 {
		t.Errorf("%d crashes, %d scrambled restarts, %d incarnations of %d sessions, digest %q; want crashes, scrambled restarts, more incarnations than sessions, 16 hex digits",
			rep.Crashes, rep.ScrambledRestarts, rep.Incarnations, rep.Sessions, rep.CrashScheduleDigest)
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
	if code, _, _, errs := stpload(t, "-h"); code != 0 || !strings.Contains(errs, "-crash-preset") {
		t.Errorf("stpload -h: exit %d, stderr %q; want 0 and the flag list", code, errs)
	}
}
