// Command stpsoak runs a fault-injection soak campaign: the protocol zoo
// × channel kinds × adversaries × fault plans matrix, every run seeded,
// watchdogged, and audited, with safety counterexamples shrunk to
// minimal replayable traces. The report is a JSON artifact.
//
// Usage:
//
//	stpsoak                          # the full standard campaign
//	stpsoak -campaign smoke          # the small CI campaign
//	stpsoak -seed 7 -runs 3 -o report.json
//	stpsoak -budget 30s              # stop scheduling new cases after 30s
//
// The exit status is 0 when the campaign met its expectations (every
// cell that promised to survive did), 1 when any unexpected violation
// surfaced, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"seqtx/internal/cliutil"
	"seqtx/internal/obs"
	"seqtx/internal/soak"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one stpsoak command line (args without the program name)
// and returns its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stpsoak", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var metrics cliutil.Metrics
	var (
		campaign  = fs.String("campaign", "standard", "campaign: standard|smoke")
		seed      = fs.Int64("seed", 1, "base seed (run r of a cell uses seed+r)")
		runs      = fs.Int("runs", 1, "seeded runs per matrix cell")
		maxSteps  = fs.Int("max-steps", 0, "per-run step bound (0 = campaign default)")
		deadline  = fs.Int("deadline", 0, "progress-watchdog deadline in steps (0 = default)")
		wallClock = fs.Duration("run-timeout", 0, "per-run wall-clock budget (0 = default)")
		budget    = fs.Duration("budget", 0, "whole-campaign wall-clock budget: cases not started in time are dropped (0 = unlimited)")
		workers   = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		noShrink  = fs.Bool("no-shrink", false, "skip counterexample minimization")
		out       = fs.String("o", "-", "write the JSON report to this file (- = stdout)")
		quiet     = fs.Bool("q", false, "suppress the human summary on stderr")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the campaign's duration")
	)
	metrics.AddFlags(fs)
	if code, done := cliutil.Parse(fs, args); done {
		return code
	}

	for _, check := range []error{
		cliutil.Positive("runs", *runs),
		cliutil.NonNegative("max-steps", *maxSteps),
		cliutil.NonNegative("deadline", *deadline),
		cliutil.NonNegative("workers", *workers),
	} {
		if check != nil {
			fmt.Fprintln(stderr, "stpsoak:", check)
			return 2
		}
	}

	if *pprofAddr != "" {
		addr, stop, err := obs.StartPprof(*pprofAddr)
		if err != nil {
			fmt.Fprintln(stderr, "stpsoak:", err)
			return 2
		}
		defer stop()
		fmt.Fprintf(stderr, "stpsoak: pprof listening on http://%s/debug/pprof/\n", addr)
	}

	var cmp *soak.Campaign
	switch *campaign {
	case "standard":
		cmp = soak.StandardCampaign(*seed, *runs)
	case "smoke":
		cmp = soak.SmokeCampaign(*seed)
	default:
		fmt.Fprintf(stderr, "stpsoak: unknown campaign %q (have standard, smoke)\n", *campaign)
		return 2
	}
	if *maxSteps > 0 {
		cmp.Config.MaxSteps = *maxSteps
	}
	if *deadline > 0 {
		cmp.Config.ProgressDeadline = *deadline
	}
	if *wallClock > 0 {
		cmp.Config.MaxWallClock = *wallClock
	}
	if *workers > 0 {
		cmp.Config.Workers = *workers
	}
	cmp.Config.DisableShrink = *noShrink
	cmp.Config.Obs = metrics.Registry()
	snapshot := func(code int) int {
		return metrics.Finish("stpsoak", code, stdout, stderr)
	}

	if *budget > 0 {
		// Trim the case list to what plausibly fits the budget: run the
		// campaign in slices and stop scheduling when time is up. Slicing
		// keeps the per-case results identical to an unbudgeted run (each
		// case is independently seeded), so a budgeted report is a prefix
		// of the full one.
		start := time.Now()
		all := cmp.Cases
		var runsOut []soak.RunReport
		const slice = 16
		for lo := 0; lo < len(all); lo += slice {
			if time.Since(start) > *budget {
				fmt.Fprintf(stderr, "stpsoak: budget exhausted after %d/%d cases\n", lo, len(all))
				break
			}
			part := *cmp
			part.Cases = all[lo:min(lo+slice, len(all))]
			runsOut = append(runsOut, part.Run().Runs...)
		}
		cmp.Cases = all[:len(runsOut)]
		rep := &soak.Report{Campaign: cmp.Name, Runs: runsOut}
		return snapshot(emit(rep, *out, *quiet, stdout, stderr))
	}
	return snapshot(emit(cmp.Run(), *out, *quiet, stdout, stderr))
}

// emit finalizes, writes ("-" = stdout), summarizes and scores the
// report.
func emit(rep *soak.Report, outPath string, quiet bool, stdout, stderr io.Writer) int {
	rep.Finalize()
	if err := cliutil.WriteJSON(outPath, stdout, rep); err != nil {
		fmt.Fprintln(stderr, "stpsoak:", err)
		return 2
	}
	if !quiet {
		s := rep.Summary
		fmt.Fprintf(stderr,
			"stpsoak: %s campaign: %d runs — %d complete, %d expected violations (%d shrunk), %d unexpected, %d inconclusive\n",
			rep.Campaign, s.Total, s.Complete, s.ExpectedViolations, s.Shrunk, s.UnexpectedViolations, s.Inconclusive)
		for _, run := range rep.Unexpected() {
			fmt.Fprintf(stderr, "stpsoak: UNEXPECTED %s: %s — %s\n", run.ID(), run.Violation, run.Error)
		}
	}
	if !rep.Ok() {
		return 1
	}
	return 0
}
