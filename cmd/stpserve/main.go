// Command stpserve runs STP protocols as live communicating processes:
// N concurrent sender/receiver sessions multiplexed over an in-process or
// UDP-loopback transport, with optional link impairments replayed from
// the shared fault presets. It exits 0 iff no session violated safety
// (and, with -require-complete, every session finished its tape).
//
// With -crash-preset, sessions run under crash-restart supervision:
// endpoint processes are killed at the preset's scheduled ticks and
// restarted with amnesia or into scrambled state per -restart-policy;
// the run then fails on any post-stabilization violation (a bad write
// outside every recovery window) instead of strict prefix safety.
//
// Usage:
//
//	stpserve -transport inproc -sessions 64 -impair burst-drop
//	stpserve -transport udp -sessions 8 -duration 10s
//	stpserve -transport det -impair dup-replay -seed 7   # sim cross-check
//	stpserve -proto stab -crash-preset crash-scramble-both -v
//
// With -master, stpserve instead joins a distributed cluster as a
// server node: it runs the receiver halves of the sessions an stpmaster
// coordinator assigns it, over peer-addressed UDP toward a remote
// stpload client node. Every session flag is then ignored — the
// assignment carries the configuration.
//
//	stpserve -master 127.0.0.1:7700 -node-name srv-a -data-host 10.0.0.5
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"seqtx/internal/cliutil"
	"seqtx/internal/cluster"
	"seqtx/internal/fleet"
	"seqtx/internal/registry"
	"seqtx/internal/wire"
)

func main() {
	os.Exit(run())
}

func run() int {
	var metrics cliutil.Metrics
	spec := fleet.Default()
	spec.AddFlags(flag.CommandLine)
	var (
		transport = flag.String("transport", "inproc", "transport: inproc|udp|det")
		evSample  = flag.Uint64("event-sample", 1, "emit lifecycle events for every Nth session id (1 = every session)")
		duration  = flag.Duration("duration", 0, "overall wall-clock cap (0 = until sessions settle)")
		require   = flag.Bool("require-complete", false, "also fail if any session did not finish its tape")
		verbose   = flag.Bool("v", false, "print one line per session")

		master   = flag.String("master", "", "join a cluster as a server node: stpmaster control address (host:port); session flags then come from the assignment")
		nodeName = flag.String("node-name", "", "cluster node name (default srv-<pid>)")
		dataHost = flag.String("data-host", "", "host/IP the data-plane UDP sockets bind on (default 127.0.0.1; on a real fleet, the interface the peer can reach)")
	)
	metrics.AddFlags(flag.CommandLine)
	flag.Parse()

	if *master != "" {
		return cluster.NodeMain("stpserve", cluster.RoleServer, *master, *nodeName, *dataHost, *verbose)
	}

	err := spec.Validate()
	switch {
	case err != nil:
	case *duration < 0:
		err = fmt.Errorf("-duration must be >= 0, got %v", *duration)
	case *transport != "det" && *transport != "inproc" && *transport != "udp":
		err = fmt.Errorf("unknown transport %q (have det, inproc, udp)", *transport)
	case *transport == "det" && spec.Supervised():
		err = fmt.Errorf("-crash-preset needs a live transport (inproc or udp); the det runner replays crash plans via the sim")
	}
	var cfgs []wire.SessionConfig
	if err == nil {
		cfgs, err = spec.Build(0, spec.WaveBase(0))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stpserve:", err)
		return 2
	}

	var code int
	if *transport == "det" {
		code = runDet(&spec, cfgs, *verbose)
	} else {
		code = runLive(&spec, *transport, wire.ServeConfig{
			Sessions: cfgs, Obs: metrics.Registry(), EventSampleEvery: *evSample,
		}, *duration, *require, *verbose)
	}
	return metrics.Finish("stpserve", code, os.Stderr)
}

// runLive drives the sessions over a real transport; with a chaos preset
// they run supervised, crash-restarted per its schedule, and the failure
// signal is a bad write outside every recovery window.
func runLive(spec *fleet.Spec, transport string, cfg wire.ServeConfig,
	duration time.Duration, require, verbose bool) int {

	var err error
	if cfg.Transport, err = spec.Transport(transport, cfg.Obs); err != nil {
		fmt.Fprintln(os.Stderr, "stpserve:", err)
		return 1
	}
	name := cfg.Transport.Name()
	ctx := context.Background()
	if duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, duration)
		defer cancel()
	}
	var t fleet.Tally
	out, err := spec.Serve(ctx, cfg, spec.Seed, &t)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stpserve:", err)
		return 1
	}
	for _, v := range out.Violations() {
		fmt.Fprintln(os.Stderr, "stpserve:", v)
	}
	if verbose {
		printSessions(out)
	}
	if spec.Supervised() {
		policy, _ := wire.ParseRestartPolicy(spec.RestartPolicy)
		fmt.Printf("stpserve: transport=%s proto=%s chaos=%s policy=%s sessions=%d complete=%d incarnations=%d crashes=%d post-stabilization violations %d\n",
			name, spec.Proto, spec.Chaos, policy, t.Sessions, t.Completed, t.Incarnations, t.Crashes, t.PostStabViolations)
	} else {
		fmt.Printf("stpserve: transport=%s proto=%s sessions=%d complete=%d safety violations %d\n",
			name, spec.Proto, t.Sessions, t.Completed, t.Violations)
	}
	if t.Violations > 0 || t.PostStabViolations > 0 {
		return 1
	}
	if require && t.Completed != t.Sessions {
		fmt.Fprintf(os.Stderr, "stpserve: -require-complete: %d of %d sessions incomplete\n",
			t.Sessions-t.Completed, t.Sessions)
		return 1
	}
	return 0
}

// printSessions is -v: one line per session, chaos outcomes (incarnations,
// bad writes, the replayable schedule digest) for a supervised fleet.
func printSessions(out fleet.Reports) {
	for _, rep := range out {
		c := rep.Chaos
		if c == nil {
			fmt.Printf("session %3d: complete=%-5v items=%d/%d frames=%d acks=%d retransmits=%d elapsed=%v goodput=%.1f items/s\n",
				rep.ID, rep.Complete, len(rep.Output), len(rep.Input),
				rep.FramesTx, rep.AcksTx, rep.Retransmits,
				rep.Elapsed.Round(time.Millisecond), rep.GoodputItemsPerSec)
			continue
		}
		var worst time.Duration
		for _, t := range c.StabilizeTimes {
			worst = max(worst, t)
		}
		fmt.Printf("session %3d: complete=%-5v incarnations=%d crashes+watchdogs=%d bad_writes=%d post_stab=%d worst_stabilize=%v digest=%016x\n",
			rep.ID, rep.Complete, len(c.Incarnations),
			len(c.Incarnations)-1, c.BadWrites, c.PostStabViolations,
			worst.Round(time.Millisecond), c.CrashScheduleDigest)
	}
}

// runDet runs each session through the deterministic wire runner — the
// production engine under a seeded schedule, behind the impairment the
// flags name — and cross-checks each recorded schedule with
// DetResult.Accept: it must be a run of the model on a dup link that
// reaches the wire's verdict and tape.
func runDet(spec *fleet.Spec, cfgs []wire.SessionConfig, verbose bool) int {
	opts, _ := spec.Impairment() // resolved once already, by Validate
	pspec, err := registry.Protocol(spec.Proto, spec.Params())
	if err != nil {
		fmt.Fprintln(os.Stderr, "stpserve:", err)
		return 2
	}
	violations, mismatches := 0, 0
	for _, c := range cfgs {
		res, err := wire.DetRun(wire.DetConfig{
			Sender:    c.Sender,
			Receiver:  c.Receiver,
			Input:     c.Input,
			Seed:      c.Seed,
			Impair:    opts,
			SessionID: c.ID,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "stpserve:", err)
			return 1
		}
		if res.SafetyViolation != nil {
			violations++
			fmt.Fprintln(os.Stderr, "stpserve:", res.SafetyViolation)
		}
		if err = res.Accept(pspec); err != nil {
			mismatches++
			fmt.Fprintf(os.Stderr, "stpserve: session %d: %v\n", c.ID, err)
		}
		if verbose {
			fmt.Printf("session %3d: complete=%-5v steps=%d frames=%d acks=%d retransmits=%d sim-match=%v\n",
				c.ID, res.Complete, res.Steps, res.FramesTx, res.AcksTx, res.Retransmits, err == nil)
		}
	}
	fmt.Printf("stpserve: transport=det proto=%s sessions=%d sim-mismatches=%d safety violations %d\n",
		spec.Proto, len(cfgs), mismatches, violations)
	if violations > 0 || mismatches > 0 {
		return 1
	}
	return 0
}
