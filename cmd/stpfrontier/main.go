// Command stpfrontier sweeps protocols across the quantitative channel
// models and writes the empirical capacity frontier as a bench
// document: per-(protocol, model, m) goodput, completion rate, the
// lock-step goodput ceiling 0.25·(1−drop)/(1+dup), and the paper's
// alpha(m) information bound.
//
// Protocols are only paired with channel kinds they are verifiably
// safe on (afwz/hybrid are del-channel protocols — on the iid-dup
// family they are skipped, and their stalls under genuine loss are
// reported as low completion, not errors). The FIFO-only windowed
// protocols (gobackn, selrepeat) run the order-preserving loss
// families (iid-loss, ge) over a FIFO realization and sweep the
// -windows depth axis. Any prefix-safety violation anywhere in the
// sweep exits nonzero.
//
// Usage:
//
//	stpfrontier -protos alpha,afwz,hybrid,stenning -m 4,8 \
//	    -trials 20 -report BENCH_frontier.json -markdown -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"seqtx/internal/chanmodel"
	"seqtx/internal/cliutil"
	"seqtx/internal/frontier"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one stpfrontier command line (args without the program
// name) and returns its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stpfrontier", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		protos   = fs.String("protos", strings.Join(frontier.FrontierProtocols(), ","), "comma-separated protocols (must be in the verified-safe table)")
		models   = fs.String("models", "default", "comma-separated channel-model specs ("+chanmodel.SpecSyntax+"; commas inside parentheses do not split), or \"default\" for the standard 4×4 grid")
		ms       = fs.String("m", "4,8", "comma-separated alphabet sizes")
		windows  = fs.String("windows", "4", "comma-separated window depths for the FIFO-only windowed protocols (gobackn, selrepeat)")
		items    = fs.Int("items", 0, "input items per trial (repetition-free protocols cap this at min m; default min m)")
		trials   = fs.Int("trials", 20, "Monte-Carlo trials per cell")
		maxSteps = fs.Int("max-steps", 0, "step budget per trial (0 = 600 + 200·items)")
		timeout  = fs.Int("timeout", 0, "hybrid timeout (ticks; 0 = protocol default)")
		seed     = fs.Int64("seed", 1, "base seed (cell c trial i derives from seed+c*10007+i)")
		par      = fs.Int("par", 0, "trial parallelism per cell (0 = GOMAXPROCS)")
		reportTo = fs.String("report", "", "write the bench document to this file (\"-\" = stdout, \"\" = skip)")
		mdTo     = fs.String("markdown", "", "write the frontier tables as markdown to this file (\"-\" = stdout, \"\" = skip)")
		verbose  = fs.Bool("v", false, "log per-cell progress")
	)
	if code, done := cliutil.Parse(fs, args); done {
		return code
	}

	cfg := frontier.Config{
		Protos:      cliutil.SplitList(*protos),
		Ms:          nil,
		Items:       *items,
		Trials:      *trials,
		MaxSteps:    *maxSteps,
		Timeout:     *timeout,
		Seed:        *seed,
		Parallelism: *par,
	}
	var err error
	if cfg.Ms, err = cliutil.ParseList(*ms, strconv.Atoi); err != nil {
		fmt.Fprintf(stderr, "stpfrontier: -m: %v\n", err)
		return 2
	}
	if cfg.Windows, err = cliutil.ParseList(*windows, strconv.Atoi); err != nil {
		fmt.Fprintf(stderr, "stpfrontier: -windows: %v\n", err)
		return 2
	}
	if *models != "default" {
		if cfg.Models, err = chanmodel.ParseList(*models); err != nil {
			fmt.Fprintln(stderr, "stpfrontier:", err)
			return 2
		}
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, "stpfrontier: "+format+"\n", args...)
		}
	}

	doc, err := frontier.Run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "stpfrontier:", err)
		return 2
	}

	fmt.Fprintf(stdout, "stpfrontier: %d cells (%d skipped as unsafe pairings), %d trials each, violations %d\n",
		doc.TotalCells, len(doc.Skipped), doc.Trials, doc.TotalViolations)

	if *reportTo != "" {
		if err := cliutil.WriteJSON(*reportTo, stdout, doc); err != nil {
			fmt.Fprintln(stderr, "stpfrontier:", err)
			return 1
		}
	}
	if *mdTo != "" {
		if err := cliutil.WriteFile(*mdTo, stdout, []byte(doc.Markdown())); err != nil {
			fmt.Fprintln(stderr, "stpfrontier:", err)
			return 1
		}
	}
	if doc.TotalViolations > 0 {
		fmt.Fprintf(stderr, "stpfrontier: FAIL: %d prefix-safety violations\n", doc.TotalViolations)
		return 1
	}
	return 0
}
