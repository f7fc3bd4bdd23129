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
	"io"
	"os"
	"time"

	"seqtx/internal/cliutil"
	"seqtx/internal/cluster"
	"seqtx/internal/fleet"
	"seqtx/internal/registry"
	"seqtx/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one stpserve command line (args without the program name)
// and returns its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stpserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var metrics cliutil.Metrics
	spec := fleet.Default()
	spec.AddFlags(fs)
	var (
		transport = fs.String("transport", "inproc", "transport: inproc|udp|det")
		evSample  = fs.Uint64("event-sample", 1, "emit lifecycle events for every Nth session id (1 = every session)")
		duration  = fs.Duration("duration", 0, "overall wall-clock cap (0 = until sessions settle)")
		require   = fs.Bool("require-complete", false, "also fail if any session did not finish its tape")
		verbose   = fs.Bool("v", false, "print one line per session")

		master   = fs.String("master", "", "join a cluster as a server node: stpmaster control address (host:port); session flags then come from the assignment")
		nodeName = fs.String("node-name", "", "cluster node name (default srv-<pid>)")
		dataHost = fs.String("data-host", "", "host/IP the data-plane UDP sockets bind on (default 127.0.0.1; on a real fleet, the interface the peer can reach)")
	)
	metrics.AddFlags(fs)
	if code, done := cliutil.Parse(fs, args); done {
		return code
	}

	if *master != "" {
		return cluster.NodeMain("stpserve", cluster.RoleServer, *master, *nodeName, *dataHost, *verbose, stdout, stderr)
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
		fmt.Fprintln(stderr, "stpserve:", err)
		return 2
	}

	out := output{stdout, stderr, *verbose}
	var code int
	if *transport == "det" {
		code = out.runDet(&spec, cfgs)
	} else {
		code = out.runLive(&spec, *transport, wire.ServeConfig{
			Sessions: cfgs, Obs: metrics.Registry(), EventSampleEvery: *evSample,
		}, *duration, *require)
	}
	return metrics.Finish("stpserve", code, stdout, stderr)
}

// output is where a run reports, and whether one line a session (-v).
type output struct {
	stdout, stderr io.Writer
	verbose        bool
}

// runLive drives the sessions over a real transport; with a chaos preset
// they run supervised, crash-restarted per its schedule, and the failure
// signal is a bad write outside every recovery window.
func (o output) runLive(spec *fleet.Spec, transport string, cfg wire.ServeConfig,
	duration time.Duration, require bool) int {

	var err error
	if cfg.Transport, err = spec.Transport(transport, cfg.Obs); err != nil {
		fmt.Fprintln(o.stderr, "stpserve:", err)
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
		fmt.Fprintln(o.stderr, "stpserve:", err)
		return 1
	}
	for _, v := range out.Violations() {
		fmt.Fprintln(o.stderr, "stpserve:", v)
	}
	if o.verbose {
		o.printSessions(out)
	}
	if spec.Supervised() {
		policy, _ := wire.ParseRestartPolicy(spec.RestartPolicy)
		fmt.Fprintf(o.stdout, "stpserve: transport=%s proto=%s chaos=%s policy=%s sessions=%d complete=%d incarnations=%d crashes=%d post-stabilization violations %d\n",
			name, spec.Proto, spec.Chaos, policy, t.Sessions, t.Completed, t.Incarnations, t.Crashes, t.PostStabViolations)
	} else {
		fmt.Fprintf(o.stdout, "stpserve: transport=%s proto=%s sessions=%d complete=%d safety violations %d\n",
			name, spec.Proto, t.Sessions, t.Completed, t.Violations)
	}
	if t.Violations > 0 || t.PostStabViolations > 0 {
		return 1
	}
	if require && t.Completed != t.Sessions {
		fmt.Fprintf(o.stderr, "stpserve: -require-complete: %d of %d sessions incomplete\n",
			t.Sessions-t.Completed, t.Sessions)
		return 1
	}
	return 0
}

// printSessions is -v: one line per session, chaos outcomes (incarnations,
// bad writes, the digest of the crash schedule the session realized, which
// depends on timing: only a manual-engine run reproduces it) for a
// supervised fleet.
func (o output) printSessions(out fleet.Reports) {
	for _, rep := range out {
		c := rep.Chaos
		if c == nil {
			fmt.Fprintf(o.stdout, "session %3d: complete=%-5v items=%d/%d frames=%d acks=%d retransmits=%d elapsed=%v goodput=%.1f items/s\n",
				rep.ID, rep.Complete, len(rep.Output), len(rep.Input),
				rep.FramesTx, rep.AcksTx, rep.Retransmits,
				rep.Elapsed.Round(time.Millisecond), rep.GoodputItemsPerSec)
			continue
		}
		var worst time.Duration
		for _, t := range c.StabilizeTimes {
			worst = max(worst, t)
		}
		fmt.Fprintf(o.stdout, "session %3d: complete=%-5v incarnations=%d crashes+watchdogs=%d bad_writes=%d post_stab=%d worst_stabilize=%v digest=%016x\n",
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
func (o output) runDet(spec *fleet.Spec, cfgs []wire.SessionConfig) int {
	opts, _ := spec.Impairment() // resolved once already, by Validate
	pspec, err := registry.Protocol(spec.Proto, spec.Params())
	if err != nil {
		fmt.Fprintln(o.stderr, "stpserve:", err)
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
			fmt.Fprintln(o.stderr, "stpserve:", err)
			return 1
		}
		if res.SafetyViolation != nil {
			violations++
			fmt.Fprintln(o.stderr, "stpserve:", res.SafetyViolation)
		}
		if err = res.Accept(pspec); err != nil {
			mismatches++
			fmt.Fprintf(o.stderr, "stpserve: session %d: %v\n", c.ID, err)
		}
		if o.verbose {
			fmt.Fprintf(o.stdout, "session %3d: complete=%-5v steps=%d frames=%d acks=%d retransmits=%d sim-match=%v\n",
				c.ID, res.Complete, res.Steps, res.FramesTx, res.AcksTx, res.Retransmits, err == nil)
		}
	}
	fmt.Fprintf(o.stdout, "stpserve: transport=det proto=%s sessions=%d sim-mismatches=%d safety violations %d\n",
		spec.Proto, len(cfgs), mismatches, violations)
	if violations > 0 || mismatches > 0 {
		return 1
	}
	return 0
}
