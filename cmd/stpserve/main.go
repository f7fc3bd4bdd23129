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
	"math/rand"
	"os"
	"strings"
	"time"

	"seqtx/internal/chanmodel"
	"seqtx/internal/channel"
	"seqtx/internal/cliutil"
	"seqtx/internal/cluster"
	"seqtx/internal/faults"
	"seqtx/internal/obs"
	"seqtx/internal/protocol"
	"seqtx/internal/protocol/hybrid"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
	"seqtx/internal/wire"
)

func main() {
	os.Exit(run())
}

func run() int {
	var metrics cliutil.Metrics
	var (
		proto     = flag.String("proto", "alpha", "protocol: "+strings.Join(registry.ProtocolNames(), "|"))
		m         = flag.Int("m", 8, "domain / sender-alphabet size parameter")
		timeout   = flag.Int("timeout", hybrid.DefaultTimeout, "hybrid timeout (ticks)")
		window    = flag.Int("window", 4, "modseq sequence-number window")
		sessions  = flag.Int("sessions", 8, "number of concurrent sessions")
		items     = flag.Int("items", 6, "input items per session (repetition-free, so at most -m)")
		transport = flag.String("transport", "inproc", "transport: inproc|udp|det")
		inboxSize = flag.Int("inbox", 0, "per-session inbox capacity (0 = wire default)")
		evSample  = flag.Uint64("event-sample", 1, "emit lifecycle events for every Nth session id (1 = every session)")
		impair    = flag.String("impair", "none", "impairment preset ("+strings.Join(wire.ImpairPresetNames(), "|")+") or channel-model spec ("+chanmodel.SpecSyntax+")")
		crashPre  = flag.String("crash-preset", "none", "crash-restart chaos preset (e.g. crash-scramble-both); runs sessions supervised")
		restart   = flag.String("restart-policy", "preset", "restart state for crashed processes: preset|amnesia|scramble")
		capBound  = flag.Int("cap", 0, "channel-capacity bound c for the stab protocol (0 = its default)")
		seed      = flag.Int64("seed", 1, "base seed (session i uses seed+i)")
		tick      = flag.Duration("tick", wire.DefaultTick, "timer tick: retransmission-timeout base and receiver pacing (fresh sends do not wait for it)")
		duration  = flag.Duration("duration", 0, "overall wall-clock cap (0 = until sessions settle)")
		deadline  = flag.Duration("deadline", 30*time.Second, "per-session deadline (0 = none)")
		require   = flag.Bool("require-complete", false, "also fail if any session did not finish its tape")
		verbose   = flag.Bool("v", false, "print one line per session")

		master   = flag.String("master", "", "join a cluster as a server node: stpmaster control address (host:port); session flags then come from the assignment")
		nodeName = flag.String("node-name", "", "cluster node name (default srv-<pid>)")
		dataHost = flag.String("data-host", "", "host/IP the data-plane UDP sockets bind on (default 127.0.0.1; on a real fleet, the interface the peer can reach)")
	)
	metrics.AddFlags(flag.CommandLine)
	flag.Parse()

	if *master != "" {
		return runNode(*master, *nodeName, *dataHost, *verbose)
	}

	for _, check := range []error{
		cliutil.Positive("sessions", *sessions),
		cliutil.Positive("items", *items),
		cliutil.Positive("m", *m),
		cliutil.NonNegative("timeout", *timeout),
	} {
		if check != nil {
			fmt.Fprintln(os.Stderr, "stpserve:", check)
			return 2
		}
	}
	if *tick <= 0 {
		fmt.Fprintf(os.Stderr, "stpserve: -tick must be > 0, got %v\n", *tick)
		return 2
	}
	if *duration < 0 || *deadline < 0 {
		fmt.Fprintln(os.Stderr, "stpserve: -duration and -deadline must be >= 0")
		return 2
	}
	if *items > *m {
		fmt.Fprintf(os.Stderr, "stpserve: -items %d exceeds -m %d (inputs are repetition-free); raise -m\n", *items, *m)
		return 2
	}

	params := registry.Params{M: *m, Timeout: *timeout, Window: *window, Seed: *seed, Cap: *capBound}
	opts, err := wire.ImpairSpec(*impair, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stpserve:", err)
		return 2
	}
	if *inboxSize < 0 {
		fmt.Fprintln(os.Stderr, "stpserve: -inbox must be >= 0")
		return 2
	}

	var chaos *chaosPlan
	if *crashPre != "" && *crashPre != "none" {
		spec, err := faults.PresetSpec(*crashPre)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stpserve:", err)
			return 2
		}
		if len(spec.Crashes) == 0 {
			fmt.Fprintf(os.Stderr, "stpserve: preset %q schedules no process crashes; link impairments go via -impair\n", *crashPre)
			return 2
		}
		policy, err := wire.ParseRestartPolicy(*restart)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stpserve:", err)
			return 2
		}
		if *transport == "det" {
			fmt.Fprintln(os.Stderr, "stpserve: -crash-preset needs a live transport (inproc or udp); the det runner replays crash plans via the sim")
			return 2
		}
		chaos = &chaosPlan{preset: *crashPre, crashes: spec.Crashes, policy: policy, seed: *seed}
	}

	inputs := make([]seq.Seq, *sessions)
	src := rand.NewSource(0)
	rng := rand.New(src)
	for i := range inputs {
		src.Seed(*seed + int64(i))
		x, err := seq.RandomRepetitionFree(rng, *m, *items)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stpserve:", err)
			return 2
		}
		inputs[i] = x
	}

	var code int
	switch *transport {
	case "det":
		code = runDet(*proto, params, inputs, *seed, opts, *verbose)
	case "inproc", "udp":
		code = runLive(*transport, *proto, params, inputs, opts, chaos, metrics.Registry(),
			liveOptions{inboxSize: *inboxSize, eventSampleEvery: *evSample},
			*tick, *duration, *deadline, *require, *verbose)
	default:
		fmt.Fprintf(os.Stderr, "stpserve: unknown transport %q (have det, inproc, udp)\n", *transport)
		return 2
	}
	return metrics.Finish("stpserve", code, os.Stderr)
}

// runNode joins a distributed cluster as a server node (receiver
// halves) and serves assignments until the master shuts the sweep down.
func runNode(master, name, dataHost string, verbose bool) int {
	if err := cliutil.HostPort("master", master); err != nil {
		fmt.Fprintln(os.Stderr, "stpserve:", err)
		return 2
	}
	if name == "" {
		name = fmt.Sprintf("srv-%d", os.Getpid())
	}
	cfg := cluster.NodeConfig{
		Master: master, Role: cluster.RoleServer,
		Name: name, DataHost: dataHost,
	}
	if verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "stpserve: "+format+"\n", args...)
		}
	}
	if err := cluster.RunNode(context.Background(), cfg); err != nil {
		fmt.Fprintln(os.Stderr, "stpserve:", err)
		return 1
	}
	fmt.Printf("stpserve: node %s done\n", name)
	return 0
}

// liveOptions carries the session-tuning flags into runLive.
type liveOptions struct {
	inboxSize        int
	eventSampleEvery uint64
}

// chaosPlan carries the resolved -crash-preset schedule into runLive.
type chaosPlan struct {
	preset  string
	crashes []faults.CrashPoint
	policy  wire.RestartPolicy
	seed    int64
}

// runLive drives the sessions over a real transport; with a chaos plan
// they run supervised, crash-restarted per the plan's schedule.
func runLive(transport, proto string, params registry.Params, inputs []seq.Seq,
	opts wire.Options, chaos *chaosPlan, reg *obs.Registry, live liveOptions,
	tick, duration, deadline time.Duration, require, verbose bool) int {

	var (
		tr  wire.Transport
		err error
	)
	switch transport {
	case "udp":
		tr, err = wire.NewUDP(reg)
	default:
		tr = wire.NewInproc(0, reg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stpserve:", err)
		return 1
	}
	if tr, err = wire.NewImpairment(tr, opts, reg); err != nil {
		fmt.Fprintln(os.Stderr, "stpserve:", err)
		return 1
	}

	cfgs := make([]wire.SessionConfig, len(inputs))
	for i, x := range inputs {
		s, r, err := registry.Pair(proto, params, x)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stpserve:", err)
			return 2
		}
		cfgs[i] = wire.SessionConfig{
			ID:        uint64(i + 1),
			Sender:    s,
			Receiver:  r,
			Input:     x,
			Tick:      tick,
			Deadline:  deadline,
			InboxSize: live.inboxSize,
		}
	}

	ctx := context.Background()
	if duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, duration)
		defer cancel()
	}
	if chaos != nil {
		return runSupervised(ctx, tr, cfgs, proto, params, inputs, chaos, reg, live, require, verbose)
	}
	reports, err := wire.Serve(ctx, wire.ServeConfig{
		Transport: tr, Sessions: cfgs, Obs: reg,
		EventSampleEvery: live.eventSampleEvery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "stpserve:", err)
		return 1
	}

	complete, violations := 0, 0
	for _, rep := range reports {
		if rep.Complete {
			complete++
		}
		if rep.SafetyViolation != nil {
			violations++
			fmt.Fprintln(os.Stderr, "stpserve:", rep.SafetyViolation)
		}
		if verbose {
			fmt.Printf("session %3d: complete=%-5v items=%d/%d frames=%d acks=%d retransmits=%d elapsed=%v goodput=%.1f items/s\n",
				rep.ID, rep.Complete, len(rep.Output), len(rep.Input),
				rep.FramesTx, rep.AcksTx, rep.Retransmits,
				rep.Elapsed.Round(time.Millisecond), rep.GoodputItemsPerSec)
		}
	}
	fmt.Printf("stpserve: transport=%s proto=%s sessions=%d complete=%d safety violations %d\n",
		tr.Name(), proto, len(reports), complete, violations)
	if violations > 0 {
		return 1
	}
	if require && complete != len(reports) {
		fmt.Fprintf(os.Stderr, "stpserve: -require-complete: %d of %d sessions incomplete\n",
			len(reports)-complete, len(reports))
		return 1
	}
	return 0
}

// runSupervised runs the fleet under crash-restart supervision and
// reports chaos outcomes: incarnations, stabilization episodes, and —
// the failure signal — bad writes outside every recovery window.
func runSupervised(ctx context.Context, tr wire.Transport, cfgs []wire.SessionConfig,
	proto string, params registry.Params, inputs []seq.Seq, chaos *chaosPlan,
	reg *obs.Registry, live liveOptions, require, verbose bool) int {

	reports, err := wire.ServeSupervised(ctx, wire.ChaosServeConfig{
		ServeConfig: wire.ServeConfig{
			Transport: tr, Sessions: cfgs, Obs: reg,
			EventSampleEvery: live.eventSampleEvery,
		},
		Chaos: wire.ChaosConfig{
			Crashes: chaos.crashes,
			Policy:  chaos.policy,
			Seed:    chaos.seed,
		},
		Rebuild: func(i int) (protocol.Sender, protocol.Receiver, error) {
			return registry.Pair(proto, params, inputs[i])
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "stpserve:", err)
		return 1
	}

	complete, incarnations, crashes, postStab := 0, 0, 0, 0
	for _, rep := range reports {
		if rep.Complete {
			complete++
		}
		incarnations += len(rep.Incarnations)
		for _, ic := range rep.Incarnations {
			if ic.Ended == "crash" {
				crashes++
			}
		}
		postStab += rep.PostStabViolations
		if rep.PostStabViolations > 0 {
			fmt.Fprintf(os.Stderr, "stpserve: session %d: %d post-stabilization violations\n",
				rep.ID, rep.PostStabViolations)
		}
		if verbose {
			var worst time.Duration
			for _, t := range rep.StabilizeTimes {
				if t > worst {
					worst = t
				}
			}
			fmt.Printf("session %3d: complete=%-5v incarnations=%d crashes+watchdogs=%d bad_writes=%d post_stab=%d worst_stabilize=%v digest=%016x\n",
				rep.ID, rep.Complete, len(rep.Incarnations),
				len(rep.Incarnations)-1, rep.BadWrites, rep.PostStabViolations,
				worst.Round(time.Millisecond), rep.CrashScheduleDigest)
		}
	}
	fmt.Printf("stpserve: transport=%s proto=%s chaos=%s policy=%s sessions=%d complete=%d incarnations=%d crashes=%d post-stabilization violations %d\n",
		tr.Name(), proto, chaos.preset, chaos.policy, len(reports), complete, incarnations, crashes, postStab)
	if postStab > 0 {
		return 1
	}
	if require && complete != len(reports) {
		fmt.Fprintf(os.Stderr, "stpserve: -require-complete: %d of %d sessions incomplete\n",
			len(reports)-complete, len(reports))
		return 1
	}
	return 0
}

// runDet runs each session through the deterministic single-goroutine
// wire runner and cross-checks the recorded schedule against the
// lock-step simulator on a dup link: the two output tapes must agree
// byte for byte.
func runDet(proto string, params registry.Params, inputs []seq.Seq, seed int64,
	opts wire.Options, verbose bool) int {

	violations, mismatches := 0, 0
	for i, x := range inputs {
		s, r, err := registry.Pair(proto, params, x)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stpserve:", err)
			return 2
		}
		res, err := wire.DetRun(wire.DetConfig{
			Sender:    s,
			Receiver:  r,
			Input:     x,
			Seed:      seed + int64(i),
			DupEveryN: opts.DupEveryN,
			SessionID: uint64(i + 1),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "stpserve:", err)
			return 1
		}
		if res.SafetyViolation != nil {
			violations++
			fmt.Fprintln(os.Stderr, "stpserve:", res.SafetyViolation)
		}

		spec, err := registry.Protocol(proto, params)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stpserve:", err)
			return 2
		}
		link, err := channel.NewLinkOfKind(channel.KindDup)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stpserve:", err)
			return 1
		}
		w, err := sim.New(spec, x, link)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stpserve:", err)
			return 1
		}
		simRes, err := sim.Run(w, sim.NewScripted(res.Script, sim.NewRoundRobin()),
			sim.Config{MaxSteps: len(res.Script), StopWhenComplete: true})
		if err != nil {
			fmt.Fprintln(os.Stderr, "stpserve: sim replay:", err)
			return 1
		}
		match := simRes.Output.Equal(res.Output)
		if !match {
			mismatches++
			fmt.Fprintf(os.Stderr, "stpserve: session %d: wire output %s != sim output %s\n",
				i+1, res.Output, simRes.Output)
		}
		if verbose {
			fmt.Printf("session %3d: complete=%-5v steps=%d frames=%d acks=%d sim-match=%v\n",
				i+1, res.Complete, res.Steps, res.FramesTx, res.AcksTx, match)
		}
	}
	fmt.Printf("stpserve: transport=det proto=%s sessions=%d sim-mismatches=%d safety violations %d\n",
		proto, len(inputs), mismatches, violations)
	if violations > 0 || mismatches > 0 {
		return 1
	}
	return 0
}
