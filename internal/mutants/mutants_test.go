//go:build ci

// Package mutants holds the table of planted bugs that the repository's
// tests must catch, one row a bug: a file, an exact snippet that occurs
// there once, its replacement, and the package and -run pattern whose
// tests must then fail. A row that survives names a test that is too
// weak: strengthen the test, never drop the row. The rows stand for the
// command-line cases of cmd/*/main_test.go, the archtest rows that keep
// the commands and the event loop in shape, and mutants that earlier
// changes argued a test from.
//
// Each row copies the repository's tracked Go files, go.mod files,
// testdata and DESIGN.md into a temporary directory, applies its
// replacement there and runs `go test -count=1 -tags ci -run <pattern>`
// on its package, one row at a time. Run the table with
//
//	go test -tags ci ./internal/mutants
package mutants

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

type mutant struct {
	name     string // the subtest: what the mutant breaks
	guards   string // the test, rule or change the row stands for
	file     string
	from, to string
	pkg      string // relative to the repository root
	run      string // the -run pattern that must fail
	timeout  string // go test's -timeout (default 5m); a timeout is a failure
}

var mutants = []mutant{
	// cmd/stpload: the load generator's smokes.
	{
		name:   "report-is-not-json",
		guards: "TestInprocSmoke: the report parses",
		file:   "internal/cliutil/cliutil.go",
		from:   "WriteFile(path, stdout, append(data, '\\n'))",
		to:     "WriteFile(path, stdout, append(data, ','))",
		pkg:    "cmd/stpload", run: "TestInprocSmoke",
	},
	{
		name:   "no-fill-at-attach",
		guards: "TestProgressClocked: fresh sends do not wait for the tick",
		file:   "internal/wire/engine.go",
		from:   "if first && !w.fill(s, &room, now) {",
		to:     "if false && !w.fill(s, &room, now) {",
		pkg:    "cmd/stpload", run: "TestProgressClocked",
	},
	{
		name:   "no-fill-on-progress",
		guards: "TestSmokes/fill: an ack that moves the sender refills the window",
		file:   "internal/wire/engine.go",
		from:   "s.bo.reset(w.rtt.rto(s.cfg.Tick))\n\t\t\tif !w.fill(s, &room, now) {",
		to:     "s.bo.reset(w.rtt.rto(s.cfg.Tick))\n\t\t\tif false && !w.fill(s, &room, now) {",
		pkg:    "cmd/stpload", run: "TestSmokes/fill",
	},
	{
		name:   "gobackn-accepts-out-of-order",
		guards: "TestSmokes/windowed: go-back-n stays safe under bursty loss",
		file:   "internal/protocol/gobackn/gobackn.go",
		from:   "if d.F[0] == r.next%r.mod() {",
		to:     "if d.F[0] >= 0 {",
		pkg:    "cmd/stpload", run: "TestSmokes/windowed",
	},
	{
		name:   "no-scrambled-restart",
		guards: "TestSmokes/chaos: scrambled restarts fire",
		file:   "internal/wire/supervisor.go",
		from:   "if ev.scramble {",
		to:     "if false {",
		pkg:    "cmd/stpload", run: "TestSmokes/^chaos$",
	},
	{
		name:   "supervised-completion-counts-unfinished",
		guards: "TestSmokes/chaos: a crashed incarnation is not an unfinished session",
		file:   "internal/wire/mux.go",
		from:   "case rep.Complete:",
		to:     "case rep.Complete && rep.Chaos == nil:",
		pkg:    "cmd/stpload", run: "TestSmokes/^chaos$",
	},
	{
		name:   "no-round-trip-probe",
		guards: "TestSmokes/rtt (ci): round trips are measured",
		file:   "internal/wire/engine.go",
		from:   "\t\t\ts.probeAt = now\n",
		to:     "\n",
		pkg:    "cmd/stpload", run: "TestSmokes/^rtt$",
	},
	{
		name:   "no-precise-park",
		guards: "TestSmokes/rtt (ci): timers fire on time and some parks are precise",
		file:   "internal/wire/engine.go",
		from:   "if d < preciseBelow && w.pt != nil && w.pt.arm(d) {",
		to:     "if false && w.pt.arm(d) {",
		pkg:    "cmd/stpload", run: "TestSmokes/^rtt$",
	},
	{
		name:   "goroutine-per-session",
		guards: "TestSmokes/chaos-100k (ci): the goroutine count stays flat",
		file:   "internal/wire/serve.go",
		from:   "\t\tsessions[i] = s\n",
		to:     "\t\tsessions[i] = s\n\t\tgo func() { <-ctx.Done() }()\n",
		pkg:    "cmd/stpload", run: "TestSmokes/^chaos-100k$",
	},
	{
		name:   "no-peak-rss",
		guards: "TestSmokes/scale-10k (ci): the scale sweep records its footprint",
		file:   "internal/cliutil/rss.go",
		from:   "return kb * 1024",
		to:     "return kb * 0",
		pkg:    "cmd/stpload", run: "TestSmokes/^scale-10k$",
	},
	{
		// The livelock the 1024-session smoke was written for: a worker
		// that re-arms a popped entry at the reading that popped it pops
		// it again forever and strands its sessions past their deadline.
		// Should the test hang instead, the row's timeout ends it.
		name:   "timer-rearmed-at-its-pop",
		guards: "TestServeWaveStress: every session of 30 waves of 1024 completes in time",
		file:   "internal/wire/engine.go",
		from:   "\tw.timers.push(s.nextWake(), s)\n}\n\n// finish retires",
		to:     "\tw.timers.push(min(s.nextWake(), now), s)\n}\n\n// finish retires",
		pkg:    "internal/wire", run: "TestServeWaveStress",
		timeout: "20s",
	},

	// cmd/stpserve.
	{
		name:   "completions-not-counted",
		guards: "TestInprocAcceptance: the snapshot counts 64 completed sessions",
		file:   "internal/wire/mux.go",
		from:   "\t\tmet.completed.Inc()\n",
		to:     "\n",
		pkg:    "cmd/stpserve", run: "TestInprocAcceptance",
	},
	{
		name:   "udp-peer-drops-its-peer",
		guards: "TestUDPSmoke: every loopback session completes",
		file:   "internal/wire/udppeer.go",
		from:   "return got.Port() == want.Port() &&",
		to:     "return got.Port() != want.Port() &&",
		pkg:    "cmd/stpserve", run: "TestUDPSmoke",
	},
	{
		name:   "det-records-the-wrong-direction",
		guards: "TestDetCrossCheck: sim.Accept plays every recorded schedule",
		file:   "internal/wire/session.go",
		from:   "tick = trace.Deliver(dir, ev.Msg)",
		to:     "tick = trace.Deliver(channel.SToR, ev.Msg)",
		pkg:    "cmd/stpserve", run: "TestDetCrossCheck",
	},
	{
		name:   "det-schedule-unseeded",
		guards: "TestDetCrossCheck: two runs of one command line print the same bytes",
		file:   "internal/wire/det.go",
		from:   "rand.New(rand.NewSource(cfg.Seed))",
		to:     "rand.New(rand.NewSource(rand.Int63()))",
		pkg:    "cmd/stpserve", run: "TestDetCrossCheck",
	},

	// cmd/stpfrontier.
	{
		name:   "frontier-runs-unsafe-pairings",
		guards: "TestSweeps/loss-dup-ge: only verified-safe pairings are charted",
		file:   "internal/frontier/frontier.go",
		from:   "if !SafeOn(proto, kind) {",
		to:     "if false {",
		pkg:    "cmd/stpfrontier", run: "TestSweeps/loss-dup-ge",
	},
	{
		name:   "windowed-frontier-runs-dup",
		guards: "TestSweeps/windowed: the FIFO-only protocols skip the dup model",
		file:   "internal/frontier/frontier.go",
		from:   "if !fifoFamilies[model.Family()] {",
		to:     "if false {",
		pkg:    "cmd/stpfrontier", run: "TestSweeps/windowed",
	},
	{
		name:   "frontier-report-by-default",
		guards: "TestWritesOnlyWhatItIsAsked: no committed file is rewritten by default",
		file:   "cmd/stpfrontier/main.go",
		from:   `fs.String("report", "",`,
		to:     `fs.String("report", "BENCH_frontier.json",`,
		pkg:    "cmd/stpfrontier", run: "TestWritesOnlyWhatItIsAsked",
	},

	// cmd/stpsoak.
	{
		name:   "soak-forgives-nothing",
		guards: "TestSmokeCampaign: every cell that promised to survive did",
		file:   "internal/soak/soak.go",
		from:   `rep.Expected = rep.Violation == "" || (c.MayFail && rep.Violation != ViolationMechanical)`,
		to:     `rep.Expected = rep.Violation == ""`,
		pkg:    "cmd/stpsoak", run: "TestSmokeCampaign",
	},
	{
		name:   "metrics-to-process-stdout",
		guards: "TestMetrics: -metrics - writes to the command's stdout",
		file:   "internal/cliutil/cliutil.go",
		from:   "_, err := stdout.Write(data)",
		to:     "_, err := os.Stdout.Write(data)",
		pkg:    "cmd/stpsoak", run: "TestMetrics",
	},

	// internal/archtest: the two rows that replaced CI's shell guards.
	{
		name:   "spontaneous-from-service",
		guards: "archtest spontaneous-from-fill-and-fire",
		file:   "internal/wire/session.go",
		from:   "func (s *Session) spontaneous(now int64) bool {",
		to:     "func (s *Session) kick(now int64) bool { return s.spontaneous(now) }\n\nfunc (s *Session) spontaneous(now int64) bool {",
		pkg:    "internal/archtest", run: "TestArchitecture/spontaneous-from-fill-and-fire",
	},
	{
		name:   "command-prints-to-process-stdout",
		guards: "archtest process-io-in-main-only",
		file:   "cmd/stpexp/main.go",
		from:   `fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)`,
		to:     `fmt.Printf("%-4s %s\n", e.ID, e.Title)`,
		pkg:    "internal/archtest", run: "TestArchitecture/process-io-in-main-only",
	},

	// Mutants earlier changes argued from, replayed.
	{
		name:   "tape-judges-length-only",
		guards: "seq.Tape, the one prefix judge (PR 31)",
		file:   "internal/seq/tape.go",
		from:   "if int(t.Len) >= len(input) || input[t.Len] != item {",
		to:     "if int(t.Len) >= len(input) || item < 0 {",
		pkg:    "internal/seq", run: "TestTape",
	},
	{
		name:   "accept-plays-disabled-actions",
		guards: "sim.Accept fails at the first disabled action (PR 32)",
		file:   "internal/sim/runner.go",
		from:   "} else if act = script[step]; !w.Replayable(act) {",
		to:     "} else if act = script[step]; false {",
		pkg:    "internal/sim", run: "TestScriptedAdversarySkipsDisabled",
	},
	{
		name:   "fill-unbounded",
		guards: "a service call's fills stop at the peer's inbox (PR 33)",
		file:   "internal/wire/engine.go",
		from:   "for first := true; *room > 0; first = false {",
		to:     "for first := true; ; first = false {",
		pkg:    "internal/wire", run: "TestProgressClockedStep/fill_ends",
	},
	{
		name:   "grow-drops-staged-frames",
		guards: "an inbox that grows keeps what it staged (PR 37)",
		file:   "internal/wire/ring.go",
		from:   "q.grown[i&(q.limit-1)] = old[i&uint64(len(old)-1)]",
		to:     "q.grown[i&(q.limit-1)] = old[0]",
		pkg:    "internal/wire", run: "TestInbox",
	},
	{
		name:   "selrepeat-slide-unreported",
		guards: "Sender.Moved reports a slide (PR 39)",
		file:   "internal/protocol/selrepeat/selrepeat.go",
		from:   "\t\t\ts.base++\n\t\t\ts.moved = true\n",
		to:     "\t\t\ts.base++\n",
		pkg:    "internal/registry", run: "TestSenderMovedStreams|FuzzSenderMoved",
	},
	{
		name:   "admit-trusts-the-hash",
		guards: "sim.Graph.Admit compares the key it finds (TestGraphIndexExact)",
		file:   "internal/sim/graph.go",
		from:   "if id := g.index[slot] - 1; g.keys[id] == k {",
		to:     "if id := g.index[slot] - 1; true {",
		pkg:    "internal/sim", run: "TestGraphIndexExact",
	},
	{
		name:   "decode-trusts-the-address",
		guards: "msg.Codec.Decode compares the member it finds (FuzzCodecVsLegacyParse seeds)",
		file:   "internal/msg/table.go",
		from:   "p*c.width == off && c.alpha.msgs[p] == m {",
		to:     "p*c.width == off {",
		pkg:    "internal/registry", run: "FuzzCodecVsLegacyParse",
	},
}

func TestMutantsAreKilled(t *testing.T) {
	root := repoRoot(t)
	files := sources(t, root)
	seen := map[string]bool{}
	for _, m := range mutants {
		if seen[m.name] {
			t.Fatalf("two rows named %q", m.name)
		}
		seen[m.name] = true
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, f := range files {
				copyFile(t, filepath.Join(root, f), filepath.Join(dir, f))
			}
			path := filepath.Join(dir, m.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.from); n != 1 {
				t.Fatalf("%s holds the snippet %d times, want once: %q", m.file, n, m.from)
			}
			if err := os.WriteFile(path, []byte(strings.Replace(string(src), m.from, m.to, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			timeout := m.timeout
			if timeout == "" {
				timeout = "5m"
			}
			cmd := exec.Command("go", "test", "-count=1", "-trimpath", "-tags", "ci", "-timeout", timeout, "-run", m.run, "./"+m.pkg)
			cmd.Dir = dir
			cmd.Env = append(os.Environ(), "GOFLAGS=", "GOPROXY=off")
			out, err := cmd.CombinedOutput()
			switch {
			case err == nil:
				t.Errorf("survived: go test -run %q ./%s passes with %s mutated; %s is too weak", m.run, m.pkg, m.file, m.guards)
			case !bytes.Contains(out, []byte("--- FAIL")) && !bytes.Contains(out, []byte("panic: test timed out")):
				t.Errorf("go test failed, but no test did (does the mutant build?):\n%s", out)
			}
		})
	}
}

// sources lists, relative to root, the files a mutant's copy needs: the
// Go files and go.mod files git tracks or would track, the testdata
// files, and DESIGN.md (internal/archtest reads its headings).
func sources(t *testing.T, root string) []string {
	t.Helper()
	cmd := exec.Command("git", "ls-files", "--cached", "--others", "--exclude-standard")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("git ls-files: %v", err)
	}
	var files []string
	for _, f := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if strings.HasSuffix(f, ".go") || filepath.Base(f) == "go.mod" || f == "DESIGN.md" || strings.Contains(f, "/testdata/") {
			if _, err := os.Stat(filepath.Join(root, f)); err == nil { // not deleted in the work tree
				files = append(files, f)
			}
		}
	}
	return files
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	data, err := os.ReadFile(from)
	if err == nil {
		err = os.MkdirAll(filepath.Dir(to), 0o755)
	}
	if err == nil {
		err = os.WriteFile(to, data, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// repoRoot is the directory two levels above this package.
func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd))
}
