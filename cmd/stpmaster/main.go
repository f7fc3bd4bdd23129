// Command stpmaster coordinates a distributed STP cluster sweep: it
// waits for a fleet of stpserve nodes (receiver halves) and stpload
// nodes (sender halves) to connect over the line-JSON control plane,
// then drives every sessions × rate × impairment cell of the evaluation
// grid across the fleet — each cell runs over fresh peer-addressed UDP
// sockets whose addresses the master exchanges — and writes the
// aggregated bench document (per-cell latency percentiles, throughput,
// violation and drop counts) as JSON.
//
// The exit contract mirrors the single-process tools: load may slow
// sessions down or leave them incomplete, but a single prefix-safety
// violation anywhere in the fleet fails the run.
//
// Usage:
//
//	stpmaster sweep -listen 127.0.0.1:7700 -servers 2 -clients 2 \
//	    -proto alpha -sessions 4,16 -rates 0,100 -impairs none,burst-drop \
//	    -report BENCH_cluster.json
//
// then on each node machine:
//
//	stpserve -master 127.0.0.1:7700 -node-name srv-a
//	stpload  -master 127.0.0.1:7700 -node-name cli-a
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"seqtx/internal/chanmodel"
	"seqtx/internal/cliutil"
	"seqtx/internal/cluster"
	"seqtx/internal/faults"
	"seqtx/internal/fleet"
	"seqtx/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one stpmaster command line (args without the program
// name) and returns its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	// "sweep" is the (only) subcommand; accept and shift it so the
	// documented invocation works, but don't require it.
	if len(args) > 0 && args[0] == "sweep" {
		args = args[1:]
	}
	fs := flag.NewFlagSet("stpmaster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sweep := cluster.SweepConfig{Spec: fleet.Default()}
	sweep.AddParamFlags(fs)
	var (
		listen   = fs.String("listen", "127.0.0.1:7700", "control-plane listen address (host:port; :0 = kernel-assigned)")
		servers  = fs.Int("servers", 2, "stpserve nodes to wait for (must equal -clients)")
		clients  = fs.Int("clients", 2, "stpload nodes to wait for")
		sessions = fs.String("sessions", "8", "comma-separated sessions-per-cell axis, e.g. 4,16,64")
		rates    = fs.String("rates", "0", "comma-separated client session-start rates per second (0 = unpaced), e.g. 0,100")
		impairs  = fs.String("impairs", "none", "comma-separated impairment presets ("+strings.Join(wire.ImpairPresetNames(), "|")+") or channel-model specs ("+chanmodel.SpecSyntax+"; commas inside parentheses do not split)")
		chaos    = fs.String("crash-presets", "none", "comma-separated crash-restart preset axis (process-fault presets from "+strings.Join(faults.PresetNames(), "|")+"); cells run supervised, each node crashing its own half")
		cellTO   = fs.Duration("cell-timeout", 0, "per-cell node timeout: a node that misses it fails only that cell (its pair is dropped, the sweep continues); 0 = any node failure aborts the sweep")
		assemble = fs.Duration("assemble-timeout", 60*time.Second, "how long to wait for the fleet to connect")
		reportTo = fs.String("report", "", "write the bench document to this file (\"-\" = stdout, \"\" = skip)")
		verbose  = fs.Bool("v", false, "log fleet assembly and per-cell progress")
	)
	if code, done := cliutil.Parse(fs, args); done {
		return code
	}

	for _, check := range []error{
		cliutil.HostPort("listen", *listen),
		cliutil.Positive("servers", *servers),
		cliutil.Positive("clients", *clients),
	} {
		if check != nil {
			fmt.Fprintln(stderr, "stpmaster:", check)
			return 2
		}
	}
	var err error
	if sweep.Sessions, err = cliutil.ParseList(*sessions, strconv.Atoi); err != nil {
		fmt.Fprintf(stderr, "stpmaster: -sessions: %v\n", err)
		return 2
	}
	if sweep.Rates, err = cliutil.ParseList(*rates, func(f string) (float64, error) { return strconv.ParseFloat(f, 64) }); err != nil {
		fmt.Fprintf(stderr, "stpmaster: -rates: %v\n", err)
		return 2
	}
	// Depth-aware split: model specs like k-del(k=2,n=16) carry commas.
	sweep.Impairs = chanmodel.SplitSpecs(*impairs)
	sweep.CrashPresets = cliutil.SplitList(*chaos)

	// NewMaster validates every cell of the grid (fleet.Spec.Validate).
	cfg := cluster.MasterConfig{
		Listen:          *listen,
		Servers:         *servers,
		Clients:         *clients,
		Sweep:           sweep,
		AssembleTimeout: *assemble,
		CellTimeout:     *cellTO,
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, "stpmaster: "+format+"\n", args...)
		}
	}
	master, err := cluster.NewMaster(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "stpmaster:", err)
		return 2
	}
	fmt.Fprintf(stdout, "stpmaster: control plane on %s, waiting for %d servers + %d clients\n",
		master.Addr(), *servers, *clients)

	doc, err := master.Run(context.Background())
	if err != nil {
		fmt.Fprintln(stderr, "stpmaster:", err)
		return 1
	}

	for _, cell := range doc.Cells {
		fmt.Fprintf(stdout, "stpmaster: cell %v: complete=%d/%d violations=%d p50=%.1fms p99=%.1fms throughput=%.1f items/s foreign=%d\n",
			cell.Cell, cell.Completed, cell.Sessions, cell.Violations,
			cell.Latency.P50, cell.Latency.P99, cell.ThroughputItemsPerSec, cell.ForeignDrops)
		if cell.Cell.Chaos != "" {
			fmt.Fprintf(stdout, "stpmaster:   chaos: incarnations=%d bad-writes=%d post-stab-violations=%d watchdogs=%d\n",
				cell.Incarnations, cell.BadWrites, cell.PostStabViolations, cell.WatchdogEscalations)
		}
		if cell.Err != "" {
			fmt.Fprintf(stdout, "stpmaster:   cell failed: %s\n", cell.Err)
		}
	}
	fmt.Fprintf(stdout, "stpmaster: sweep done: cells=%d (%d failed) sessions=%d complete=%d safety violations %d\n",
		len(doc.Cells), doc.FailedCells, doc.TotalSessions, doc.TotalCompleted, doc.TotalViolations)

	if *reportTo != "" {
		if err := cliutil.WriteJSON(*reportTo, stdout, doc); err != nil {
			fmt.Fprintln(stderr, "stpmaster:", err)
			return 1
		}
	}
	if doc.TotalViolations > 0 {
		return 1
	}
	return 0
}
