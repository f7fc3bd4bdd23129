// Package archtest holds the repository's structural rules as one table
// that `go test ./...` runs: one judge of a schedule, one session
// executor, one statement of each model rule, and the deletions that keep
// them so. DESIGN.md argues each rule; a row pins it. The package has test
// files only.
//
// Every row is checked twice. Over the repository, its query must flag
// exactly count places. Over the repository plus the row's planted
// fragment, a Go file scanned as if it lived at plant, the query must flag
// a place in the fragment and the count must then be wrong: a row that
// cannot see its own violation guards nothing. The row's DESIGN.md heading
// must exist, so a renamed section cannot orphan its rule.
//
// To add a row, give:
//   - name: the rule, short;
//   - design: the DESIGN.md heading (without "## ") that argues it;
//   - scope: the paths scanned — files, "dir/*.go" (one directory) or
//     directories (recursive; "." is the whole repository, bench/
//     included) — whether _test.go files count, and directories to skip;
//   - query: an AST query where one is exact (uses, goStmts, calls,
//     holding, confined, unreferenced), otherwise grep, which matches
//     lines as `grep -E` does, comments included;
//   - count: how many places the query may flag (usually 0);
//   - plant and planted: a path inside the scope and a parseable Go
//     fragment that breaks the rule there.
//
// Run one row with `go test ./internal/archtest -run 'TestArchitecture/<name>'`.
package archtest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The DESIGN.md sections the rows rest on.
const (
	inventory   = "3. System inventory (every package, bottom-up)"
	engine      = "6. The state-space engine and why it is exhaustive"
	fidelity    = "8. Sim ↔ wire fidelity (`internal/wire`)"
	eventLoop   = "11. The event-loop engine and why a million sessions observe nothing"
	distributed = "12. Loopback assumptions as latent bugs: the distributed runtime"
	alphabet    = "14. The declared alphabet and why observation equivalence survives it"
)

type row struct {
	name    string
	design  string
	scope   scope
	query   query
	count   int
	plant   string
	planted string
}

var (
	product = scope{paths: []string{"internal", "cmd"}}
	// searchFiles are the model checker's searches and the one level loop
	// they share.
	searchFiles = scope{paths: []string{
		"internal/mc/engine.go", "internal/mc/explorer.go", "internal/mc/product.go",
		"internal/mc/bounded.go", "internal/mc/stabilize.go", "internal/mc/progress.go",
		"internal/sim/graph.go",
	}}
	wireProduct = scope{paths: []string{"internal/wire/*.go"}}
	simProduct  = scope{paths: []string{"internal/sim/*.go"}}
)

var rows = []row{
	{
		name:    "no-sscanf",
		design:  alphabet,
		scope:   product,
		query:   uses("fmt", named("Sscanf")),
		plant:   "internal/msg/planted.go",
		planted: "package msg\nimport \"fmt\"\nfunc parse(s string) (n int) { fmt.Sscanf(s, \"d:%d\", &n); return }",
	},

	// One successor mechanism: searches step the tabulated system and keep
	// states by id, in one sequential level loop, sim.Graph.Levels.
	{
		name:    "no-world-per-transition",
		design:  engine,
		scope:   product,
		query:   grep(`\.Successor\(|Fork\(\)|Unshare\(|stateIndex|hashBytes|keyArena|stableCopy`),
		plant:   "internal/mc/planted.go",
		planted: "package mc\nfunc next(w interface{ Fork() any }) any { return w.Fork() }",
	},
	{
		name:    "search-starts-no-goroutine",
		design:  engine,
		scope:   searchFiles,
		query:   goStmts(nil),
		plant:   "internal/mc/explorer.go",
		planted: "package mc\nfunc expand(level []int) { go func() {}() }",
	},
	{
		name:    "search-keeps-no-pool",
		design:  engine,
		scope:   searchFiles,
		query:   grep(`sync\.|Workers|minNodesPerWorker|workerScratch|noteDup`),
		plant:   "internal/sim/graph.go",
		planted: "package sim\nimport \"sync\"\nvar admitMu sync.Mutex",
	},
	{
		name:    "system-has-one-owner",
		design:  engine,
		scope:   scope{paths: []string{"internal/sim/system.go", "internal/sim/graph.go"}},
		query:   grep(`sync\.|caughtUp|type Reader`),
		plant:   "internal/sim/system.go",
		planted: "package sim\ntype Reader struct{ caughtUp int }",
	},
	{
		name:    "search-keys-by-id",
		design:  engine,
		scope:   searchFiles,
		query:   grep(`StartTrace\(\)|\[string\(|\.Key\(\)\]|map\[string\]`),
		plant:   "internal/mc/product.go",
		planted: "package mc\nvar seen = map[string]int{}",
	},
	{
		name:    "epistemic-keys-by-id",
		design:  engine,
		scope:   scope{paths: []string{"internal/epistemic/epistemic.go"}},
		query:   grep(`\[string\(|\.Key\(\) \+|seen\[.*Key\(\)`),
		plant:   "internal/epistemic/epistemic.go",
		planted: "package epistemic\nfunc known(seen map[string]bool, key []byte) bool { return seen[string(key)] }",
	},
	{
		name:    "one-level-loop",
		design:  engine,
		scope:   scope{paths: []string{"internal/mc/*.go", "internal/epistemic/*.go"}},
		query:   grep(`lo < len\(nodes\)|head < len\(nodes\)|for lo :?=`),
		plant:   "internal/epistemic/planted.go",
		planted: "package epistemic\nfunc walk(nodes []int) { for lo := 0; lo < len(nodes); lo++ {} }",
	},

	// One fleet description: the fleet flags are declared in fleet.Spec and
	// validated in Spec.Validate, nowhere else; the mux has one way to a
	// transport and one session table.
	{
		name:    "fleet-flags-declared-once",
		design:  distributed,
		scope:   scope{paths: []string{"cmd/stpserve", "cmd/stpload", "cmd/stpmaster", "internal/cluster", "internal/cliutil"}, tests: true},
		query:   grep(`(flag|fs)\.[A-Za-z0-9]+\((&[A-Za-z.]+, )?"(proto|m|items|window|cap|tick|deadline|restart-policy)"`),
		plant:   "cmd/stpload/planted.go",
		planted: "package main\nimport \"flag\"\nvar m = flag.Int(\"m\", 8, \"domain size\")",
	},
	{
		name:    "restart-policy-flag-once",
		design:  distributed,
		scope:   product,
		query:   grep(`"restart-policy"`),
		count:   1,
		plant:   "internal/cluster/planted.go",
		planted: "package cluster\nconst policyFlag = \"restart-policy\"",
	},
	{
		name:    "items-checked-once",
		design:  distributed,
		scope:   product,
		query:   grep(`items .*exceeds .*m `),
		count:   1,
		plant:   "cmd/stpserve/planted.go",
		planted: "package main\nimport \"fmt\"\nfunc check(items, m int) error { return fmt.Errorf(\"-items %d exceeds -m %d\", items, m) }",
	},
	{
		name:    "one-way-to-a-transport",
		design:  eventLoop,
		scope:   scope{paths: []string{"internal", "cmd"}, tests: true},
		query:   grep(`\b(blobSender|sendBlob|LoopWorkers|sessionShard)\b`),
		plant:   "internal/wire/planted_test.go",
		planted: "package wire\ntype sessionShard struct{}",
	},

	// One way to run a session: wire.Serve is the only fleet runner, and
	// the supervisor's paced starts, crashes, restarts and watchdogs are
	// timer events on the session's own loop worker.
	{
		name:    "one-fleet-runner",
		design:  eventLoop,
		scope:   scope{paths: []string{"internal", "cmd"}, tests: true},
		query:   grep(`ServeSupervised|SupervisedReport|ChaosServeConfig|runPaced|MaxIncarnations`),
		plant:   "cmd/stpload/planted.go",
		planted: "package main\nfunc runPaced() {}",
	},
	{
		name:    "supervisor-starts-no-goroutine",
		design:  eventLoop,
		scope:   scope{paths: []string{"internal/wire/supervisor.go"}},
		query:   goStmts(nil),
		plant:   "internal/wire/supervisor.go",
		planted: "package wire\nfunc (s *supervisor) watch() { go s.watch() }",
	},
	{
		name:   "supervisor-reads-no-clock",
		design: eventLoop,
		scope:  scope{paths: []string{"internal/wire/supervisor.go"}},
		query: anyOf(
			uses("time", named("Now", "Since", "NewTicker")),
			uses("context", func(name string) bool { return strings.HasPrefix(name, "With") }),
		),
		plant:   "internal/wire/supervisor.go",
		planted: "package wire\nimport \"context\"\nfunc bound(ctx context.Context) { ctx, _ = context.WithCancel(ctx) }",
	},

	// A progress event is a fill: spontaneous steps come from the fill
	// and from the timer's one step, fire, and from nowhere else.
	{
		name:    "spontaneous-from-fill-and-fire",
		design:  eventLoop,
		scope:   wireProduct,
		query:   onlyFrom(calls("spontaneous"), "fill", "fire"),
		plant:   "internal/wire/planted.go",
		planted: "package wire\nfunc (w *loopWorker) attach(s *Session, now int64) { s.spontaneous(now) }",
	},

	// One hand-off a hop: the worker that stepped a session ships what it
	// sent; the way in is Mux.arrive; the mux starts its two router pumps.
	{
		name:    "no-flushers",
		design:  eventLoop,
		scope:   scope{paths: []string{"internal/wire/*.go"}, tests: true},
		query:   grep(`flusherWg|outStripe|ob\.notify|go m\.flush`),
		plant:   "internal/wire/mux.go",
		planted: "package wire\nvar outStripe [8]int",
	},
	{
		name:    "no-outbox-drop",
		design:  eventLoop,
		scope:   product,
		query:   grep(`outbox_full`),
		plant:   "internal/wire/planted.go",
		planted: "package wire\nconst dropCause = \"outbox_full\"",
	},
	{
		name:    "mux-starts-two-pumps",
		design:  eventLoop,
		scope:   scope{paths: []string{"internal/wire/mux.go"}},
		query:   goStmts(methodOf("m")),
		count:   2,
		plant:   "internal/wire/mux.go",
		planted: "package wire\nfunc (m *Mux) start() { go m.flush() }",
	},
	{
		name:    "inboxes-staged-in-arrive",
		design:  eventLoop,
		scope:   wireProduct,
		query:   confined(calls("stage"), "Mux.arrive", inFunc("arrive")),
		plant:   "internal/wire/planted.go",
		planted: "package wire\nfunc (m *Mux) redeliver(q *inbox) { q.stage(nil) }",
	},

	// One session executor: internal/wire steps a protocol in session.go
	// only; the deterministic runner drives the production loop worker.
	{
		name:    "det-runs-no-executor",
		design:  fidelity,
		scope:   scope{paths: []string{"internal/wire/det.go"}},
		query:   grep(`\.Step\(|AppendFrame|DecodeFrame|IsPrefixOf`),
		plant:   "internal/wire/det.go",
		planted: "package wire\nfunc (r *detRun) turn(s *Session) { s.cfg.Sender.Step(nil) }",
	},
	{
		name:    "protocols-step-in-session-go",
		design:  fidelity,
		scope:   wireProduct,
		query:   confined(anyOf(calls("Sender", "Step"), calls("Receiver", "Step")), "internal/wire/session.go", inFile("internal/wire/session.go")),
		plant:   "internal/wire/planted.go",
		planted: "package wire\nfunc drive(c *SessionConfig) { c.Receiver.Step(nil) }",
	},

	// One fair rotation: the fair schedule and the window that shuts it
	// are written once, in internal/sim/rotation.go, and so is SplitMix64.
	{
		name:    "one-rotation",
		design:  inventory,
		scope:   scope{paths: []string{"internal", "cmd"}, tests: true},
		query:   grep(`phase \+ i\) % [34]|partitionAdv|rotR2S|nextDeliverable|nextFair`),
		plant:   "internal/faults/planted.go",
		planted: "package faults\nfunc nextFair(phase, i int) int { return (phase + i) % 4 }",
	},
	{
		name:    "rotation-copies-no-deliverable-set",
		design:  inventory,
		scope:   scope{paths: []string{"internal/sim/rotation.go"}},
		query:   grep(`Deliverable\(\)`),
		plant:   "internal/sim/rotation.go",
		planted: "package sim\nfunc open(c interface{ Deliverable() []int }) int { return len(c.Deliverable()) }",
	},
	{
		// SplitMix64's two multipliers in one declaration: a copy of the
		// step. sim.State.Hash reuses the first alone, to mix four ids.
		name:    "one-splitmix64",
		design:  inventory,
		scope:   scope{paths: []string{"internal"}},
		query:   holding("0xbf58476d1ce4e5b9", "0x94d049bb133111eb"),
		count:   1,
		plant:   "internal/sim/planted.go",
		planted: "package sim\nfunc mix(x uint64) uint64 {\n\tx = (x ^ x>>30) * 0xBF58476D1CE4E5B9\n\tx = (x ^ x>>27) * 0x94D049BB133111EB\n\treturn x ^ x>>31\n}",
	},

	// One statement of each model rule: World.Apply and System.Step share
	// internal/sim/rules.go, and "Y is a prefix of X" has one judge,
	// seq.Tape. IsPrefixOf stays in seq, the independent auditor
	// internal/check and the alpha encoder, where it judges no safety.
	{
		name:    "one-prefix-judge",
		design:  engine,
		scope:   scope{paths: []string{"."}, skip: []string{"internal/seq", "internal/check", "internal/alpha", "bench"}},
		query:   grep(`IsPrefixOf`),
		plant:   "internal/wire/planted.go",
		planted: "package wire\nfunc safe(y, x interface{ IsPrefixOf(any) bool }) bool { return y.IsPrefixOf(x) }",
	},
	{
		name:    "scramble-stated-once",
		design:  engine,
		scope:   simProduct,
		query:   grep(`ScrambleState\(`),
		count:   1,
		plant:   "internal/sim/planted.go",
		planted: "package sim\nfunc crash(s interface{ ScrambleState(int64) }) { s.ScrambleState(1) }",
	},
	{
		name:    "deliver-keep-stated-once",
		design:  engine,
		scope:   simProduct,
		query:   grep(`DeliverKeep\(`),
		count:   1,
		plant:   "internal/sim/planted.go",
		planted: "package sim\nfunc deliver(c interface{ DeliverKeep(int) }) { c.DeliverKeep(0) }",
	},

	// One judge of a recorded schedule: sim.Accept plays a recorded
	// schedule exactly and fails at its first disabled action; the
	// skipping adversary, mc's own replay and stpserve's copy stay deleted.
	{
		name:    "no-skipping-replay",
		design:  fidelity,
		scope:   scope{paths: []string{"."}, tests: true},
		query:   grep(`NewScripted|Skipped\(\)|replayInSim`),
		plant:   "internal/soak/planted_test.go",
		planted: "package soak\nfunc replayInSim() {}",
	},
	{
		name:    "mc-has-no-replay",
		design:  fidelity,
		scope:   scope{paths: []string{"internal/mc/*.go"}, tests: true},
		query:   grep(`func replay`),
		plant:   "internal/mc/planted_test.go",
		planted: "package mc\nfunc replayWitness() {}",
	},
	{
		name:    "stpserve-judges-through-accept",
		design:  fidelity,
		scope:   scope{paths: []string{"cmd/stpserve/*.go"}, tests: true},
		query:   grep(`sim\.Run\(`),
		plant:   "cmd/stpserve/planted.go",
		planted: "package main\nimport \"seqtx/internal/sim\"\nvar _, _ = sim.Run(nil, nil, sim.Config{})",
	},

	// Every command is a function: a cmd/ tool is run(args, stdout,
	// stderr) over its own flag set, and only its func main touches the
	// process's arguments, streams and global flag set; internal/ never
	// does. That is what lets cmd/<tool>/main_test.go run it in process.
	{
		name:   "process-io-in-main-only",
		design: inventory,
		scope:  product,
		query: confined(anyOf(
			uses("os", named("Args", "Stdin", "Stdout", "Stderr")),
			uses("flag", func(name string) bool { return !flagTypes[name] }),
			uses("fmt", named("Print", "Printf", "Println")),
		), "func main", inFunc("main")),
		plant:   "cmd/stpserve/planted.go",
		planted: "package main\nimport \"fmt\"\nfunc report(n int) { fmt.Printf(\"%d sessions\\n\", n) }",
	},

	// Nothing unreached: every exported name under internal/ has a caller
	// in product code (cmd/, the root package and bench/ count), or is
	// listed here with the reason it stays.
	{
		name:    "every-export-reached",
		design:  inventory,
		scope:   scope{paths: []string{"."}},
		query:   unreferenced(testOnly),
		plant:   "internal/msg/planted.go",
		planted: "package msg\nfunc Planted() int { return 0 }",
	},
}

// flagTypes are the names of package flag that name a type, a constant
// or an error, or make a flag set: every other one works on the process's
// global flag set, flag.CommandLine.
var flagTypes = map[string]bool{
	"NewFlagSet": true, "FlagSet": true, "Flag": true, "Value": true, "Getter": true,
	"ErrorHandling": true, "ContinueOnError": true, "ExitOnError": true, "PanicOnError": true, "ErrHelp": true,
}

// testOnly lists the exported names under internal/ that only tests
// reach, each with the reason it stays exported.
var testOnly = map[string]string{
	"seqtx/internal/alpha.Unrank":               "inverts Rank: the rank/unrank fuzzers and round-trip tests check the arrangement-tree order against it",
	"seqtx/internal/chanmodel.ScheduleBytes":    "the reference encoding the sim and wire realizations of a channel model are compared against (DESIGN §13)",
	"seqtx/internal/mc.CheckProgress":           "one of the six checkers; with CheckProgressFrom it proves the hybrid's two-deletion deadlock that EXPERIMENTS.md T8 cites",
	"seqtx/internal/protocol/steptest.Fixtures": "steptest is the shared fixture package: the registry step benchmarks and the wire engine and allocation tests draw their table from it",
	"seqtx/internal/protocol/steptest.Steady":   "steptest is the shared fixture package: the registry contract test asserts with it that every fixture path is warm",
	"seqtx/internal/seq.MustNewSet":             "the shared fixture for literal sets X in the tests of six packages; one helper beats six copies",
}

func TestArchitecture(t *testing.T) {
	root := repoRoot(t)
	all := loadRepo(t, root)
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]bool{}
	for _, line := range strings.Split(string(design), "\n") {
		if strings.HasPrefix(line, "## ") {
			headings[strings.TrimPrefix(line, "## ")] = true
		}
	}

	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.name] {
			t.Fatalf("two rows named %q", r.name)
		}
		seen[r.name] = true
		t.Run(r.name, func(t *testing.T) {
			if !headings[r.design] {
				t.Errorf("DESIGN.md has no heading %q", "## "+r.design)
			}
			in := r.scope.files(all)
			if hits := r.query(in); len(hits) != r.count {
				t.Errorf("%d places, want %d:\n%s", len(hits), r.count, list(hits))
			}
			t.Run("planted", func(t *testing.T) {
				if !r.scope.has(r.plant) {
					t.Fatalf("%s is outside the row's scope", r.plant)
				}
				f, err := parse(r.plant, []byte(r.planted))
				if err != nil {
					t.Fatal(err)
				}
				hits := r.query(append(in, f))
				caught := false
				for _, h := range hits {
					caught = caught || h.file == f
				}
				if !caught || len(hits) == r.count {
					t.Errorf("the row does not flag its planted violation; it reports:\n%s", list(hits))
				}
			})
		})
	}
}

// list renders hits one a line.
func list(hits []hit) string {
	var b strings.Builder
	for _, h := range hits {
		b.WriteString("\t" + h.String() + "\n")
	}
	return b.String()
}
