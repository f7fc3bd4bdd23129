// Command stpexp runs the reproduction experiments T1–T8 (see DESIGN.md)
// and prints their tables. With -markdown it emits the GitHub-flavored
// tables that EXPERIMENTS.md records.
//
// Usage:
//
//	stpexp               # run every experiment
//	stpexp -t T3         # run one experiment
//	stpexp -deep         # expensive variants (wider slices, longer series)
//	stpexp -markdown     # markdown output
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"seqtx/internal/cliutil"
	"seqtx/internal/expt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one stpexp command line (args without the program name)
// and returns its exit code: 1 when an experiment fails, 2 on a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stpexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		id       = fs.String("t", "", "experiment id (T1..T10); empty = all")
		list     = fs.Bool("list", false, "list the experiments and exit")
		deep     = fs.Bool("deep", false, "run expensive variants")
		markdown = fs.Bool("markdown", false, "emit markdown tables")
		seed     = fs.Int64("seed", 1, "adversary seed")
	)
	if code, done := cliutil.Parse(fs, args); done {
		return code
	}

	if *list {
		for _, e := range expt.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		return 0
	}

	opts := expt.Options{Deep: *deep, Seed: *seed}
	experiments := expt.All()
	if *id != "" {
		e, err := expt.ByID(*id)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		experiments = []expt.Experiment{e}
	}
	for _, e := range experiments {
		start := time.Now()
		tables, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(stderr, "%s failed: %v\n", e.ID, err)
			return 1
		}
		if *markdown {
			fmt.Fprintf(stdout, "### %s — %s\n\n", e.ID, e.Title)
			for _, t := range tables {
				fmt.Fprintln(stdout, t.Markdown())
			}
			fmt.Fprintf(stdout, "*(generated in %v)*\n\n", time.Since(start).Round(time.Millisecond))
			continue
		}
		fmt.Fprintf(stdout, "=== %s — %s (%v)\n\n", e.ID, e.Title, time.Since(start).Round(time.Millisecond))
		for _, t := range tables {
			fmt.Fprintln(stdout, t.String())
		}
	}
	return 0
}
