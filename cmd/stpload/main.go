// Command stpload is the wire data plane's load generator: it drives
// waves of concurrent STP sessions over a live transport for a wall-clock
// window, optionally paced to a target session-start rate and impaired
// with the shared fault presets, and emits a machine-readable JSON report
// (aggregate throughput, goodput, batch-size distribution, drop causes).
// The safety invariant is audited online in every session; stpload exits
// 0 iff no session ever violated it — load is allowed to slow transfers
// down or keep them from finishing, never to corrupt them.
//
// With -crash-preset, every session runs under crash-restart supervision
// (wire.ServeSupervised): live endpoint processes are killed mid-run at
// the preset's scheduled ticks and restarted with amnesia or into
// seeded-arbitrary scrambled state, and the report gains the chaos block
// (incarnations, stabilization times, post-stabilization violations, and
// the replayable crash-schedule digest). Under chaos the exit contract
// extends: any bad write outside a recovery window fails the run.
//
// Usage:
//
//	stpload -transport inproc -sessions 64 -duration 5s -report -
//	stpload -transport udp -sessions 16 -rate 200 -impair burst-drop
//	stpload -proto stab -crash-preset crash-scramble-both -restart-policy scramble -report -
//
// With -master, stpload instead joins a distributed cluster as a client
// node: it runs the sender halves of the sessions an stpmaster
// coordinator assigns it, over peer-addressed UDP toward a remote
// stpserve server node, rate-paced per the assignment. Every load flag
// is then ignored — the assignment carries the configuration.
//
//	stpload -master 127.0.0.1:7700 -node-name cli-a -data-host 10.0.0.6
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"seqtx/internal/chanmodel"
	"seqtx/internal/cliutil"
	"seqtx/internal/cluster"
	"seqtx/internal/faults"
	"seqtx/internal/obs"
	"seqtx/internal/protocol"
	"seqtx/internal/protocol/hybrid"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
	"seqtx/internal/wire"
)

func main() {
	os.Exit(run())
}

// report is the JSON document stpload emits.
type report struct {
	Transport      string  `json:"transport"`
	Proto          string  `json:"proto"`
	Impair         string  `json:"impair"`
	SessionsPerWav int     `json:"sessions_per_wave"`
	Waves          int     `json:"waves"`
	Sessions       int     `json:"sessions"`
	Completed      int     `json:"completed"`
	Violations     int     `json:"violations"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`

	// Chaos block: populated when -crash-preset schedules crash-restarts.
	CrashPreset         string `json:"crash_preset,omitempty"`
	RestartPolicy       string `json:"restart_policy,omitempty"`
	Incarnations        int    `json:"incarnations,omitempty"`
	Crashes             int    `json:"crashes,omitempty"`
	ScrambledRestarts   int    `json:"scrambled_restarts,omitempty"`
	WatchdogEscalations int    `json:"watchdog_escalations"`
	BadWrites           int    `json:"bad_writes"`
	PostStabViolations  int    `json:"post_stab_violations"`
	// CrashScheduleDigest folds every session's realized-schedule digest:
	// equal seeds and configs reproduce it exactly (the replay contract).
	CrashScheduleDigest string `json:"crash_schedule_digest,omitempty"`

	FramesTx     int64   `json:"frames_tx"`
	FramesRx     int64   `json:"frames_rx"`
	FramesPerSec float64 `json:"frames_per_sec"`
	Retransmits  int64   `json:"retransmits"`
	InboxDrops   int64   `json:"inbox_drops"`

	// Footprint block: peak resident memory and peak goroutine count over
	// the whole run — the scale sweep's evidence that the event loop's
	// cost per session is flat.
	MaxRSSBytes    int64 `json:"max_rss_bytes"`
	GoroutinesPeak int   `json:"goroutines_peak"`

	ItemsDelivered int64   `json:"items_delivered"`
	GoodputMean    float64 `json:"goodput_items_per_sec_mean"`

	DroppedByCause map[string]int64       `json:"dropped_by_cause,omitempty"`
	BatchFrames    *obs.HistogramSnapshot `json:"batch_frames,omitempty"`
	StabilizeTime  *obs.HistogramSnapshot `json:"stabilize_time_seconds,omitempty"`
	Metrics        obs.Snapshot           `json:"metrics"`
}

func run() int {
	var metrics cliutil.Metrics
	var (
		proto     = flag.String("proto", "alpha", "protocol: "+strings.Join(registry.ProtocolNames(), "|"))
		m         = flag.Int("m", 8, "domain / sender-alphabet size parameter")
		timeout   = flag.Int("timeout", hybrid.DefaultTimeout, "hybrid timeout (ticks)")
		window    = flag.Int("window", 4, "modseq sequence-number window")
		items     = flag.Int("items", 6, "input items per session (repetition-free, so at most -m)")
		sessions  = flag.Int("sessions", 64, "concurrent sessions per wave")
		rate      = flag.Float64("rate", 0, "target session-start rate per second (0 = unpaced waves)")
		duration  = flag.Duration("duration", 5*time.Second, "load window: new waves start until this elapses")
		transport = flag.String("transport", "inproc", "transport: inproc|udp")
		inboxSize = flag.Int("inbox", 0, "per-session inbox capacity (0 = wire default)")
		evSample  = flag.Uint64("event-sample", 0, "emit lifecycle events for every Nth session id (0 = auto-scale to fleet size, 1 = every session)")
		impair    = flag.String("impair", "none", "impairment preset ("+strings.Join(wire.ImpairPresetNames(), "|")+") or channel-model spec ("+chanmodel.SpecSyntax+")")
		crashPre  = flag.String("crash-preset", "none", "crash-restart chaos preset (e.g. crash-scramble-both); runs sessions supervised")
		restart   = flag.String("restart-policy", "preset", "restart state for crashed processes: preset|amnesia|scramble")
		capBound  = flag.Int("cap", 0, "channel-capacity bound c for the stab protocol (0 = its default)")
		seed      = flag.Int64("seed", 1, "base seed (wave w, session i uses seed+w*sessions+i)")
		tick      = flag.Duration("tick", wire.DefaultTick, "timer tick: retransmission-timeout base and receiver pacing (fresh sends do not wait for it)")
		deadline  = flag.Duration("deadline", 30*time.Second, "per-session deadline (0 = none)")
		reportTo  = flag.String("report", "", "write the JSON report to this file (\"-\" = stdout)")
		verbose   = flag.Bool("v", false, "print one line per wave")

		master   = flag.String("master", "", "join a cluster as a client node: stpmaster control address (host:port); load flags then come from the assignment")
		nodeName = flag.String("node-name", "", "cluster node name (default cli-<pid>)")
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
			fmt.Fprintln(os.Stderr, "stpload:", check)
			return 2
		}
	}
	if *tick <= 0 || *duration <= 0 || *deadline < 0 || *rate < 0 {
		fmt.Fprintln(os.Stderr, "stpload: -tick and -duration must be > 0; -deadline and -rate must be >= 0")
		return 2
	}
	if *items > *m {
		fmt.Fprintf(os.Stderr, "stpload: -items %d exceeds -m %d (inputs are repetition-free); raise -m\n", *items, *m)
		return 2
	}
	if *transport != "inproc" && *transport != "udp" {
		fmt.Fprintf(os.Stderr, "stpload: unknown transport %q (have inproc, udp)\n", *transport)
		return 2
	}
	if *inboxSize < 0 {
		fmt.Fprintln(os.Stderr, "stpload: -inbox must be >= 0")
		return 2
	}
	// Auto-scale event sampling: the obs event ring holds 4096 entries, so
	// at large fleets per-session lifecycle events are sampled down to
	// roughly half the ring per wave (counters stay exact regardless).
	sampleEvery := *evSample
	if sampleEvery == 0 {
		sampleEvery = 1
		if every := uint64(2*(*sessions)) / 4096; every > 1 {
			sampleEvery = every
		}
	}

	params := registry.Params{M: *m, Timeout: *timeout, Window: *window, Seed: *seed, Cap: *capBound}
	opts, err := wire.ImpairSpec(*impair, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stpload:", err)
		return 2
	}

	// Crash-restart chaos: a non-trivial -crash-preset switches every wave
	// to supervised sessions (wire.ServeSupervised) with the preset's
	// crash schedule and the chosen restart-state policy.
	supervised := *crashPre != "" && *crashPre != "none"
	var crashSpec faults.Spec
	var policy wire.RestartPolicy
	if supervised {
		if crashSpec, err = faults.PresetSpec(*crashPre); err != nil {
			fmt.Fprintln(os.Stderr, "stpload:", err)
			return 2
		}
		if len(crashSpec.Crashes) == 0 {
			fmt.Fprintf(os.Stderr, "stpload: preset %q schedules no process crashes; link impairments go via -impair\n", *crashPre)
			return 2
		}
		if policy, err = wire.ParseRestartPolicy(*restart); err != nil {
			fmt.Fprintln(os.Stderr, "stpload:", err)
			return 2
		}
	}

	// The report always embeds a metrics snapshot, so the registry is
	// unconditionally live; -metrics additionally writes it standalone.
	reg := metrics.Registry()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	rep := report{
		Transport:      *transport,
		Proto:          *proto,
		Impair:         *impair,
		SessionsPerWav: *sessions,
	}
	if supervised {
		rep.CrashPreset = *crashPre
		rep.RestartPolicy = policy.String()
	}
	var goodputSum float64
	var goodputN int
	runDigest := fnv.New64a()

	// Goroutine-peak sampler: the footprint claim of the event loop is
	// precisely that this number stays flat as fleets grow.
	var goroutinePeak atomic.Int64
	samplerStop := make(chan struct{})
	go func() {
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-samplerStop:
				return
			case <-t.C:
				if n := int64(runtime.NumGoroutine()); n > goroutinePeak.Load() {
					goroutinePeak.Store(n)
				}
			}
		}
	}()

	start := time.Now()
	for wave := 0; ; wave++ {
		// One wave = one fleet of -sessions concurrent transfers over a
		// fresh transport (Serve owns and closes it); the obs registry is
		// shared so counters and histograms aggregate across waves.
		waveStart := time.Now()
		var tr wire.Transport
		if *transport == "udp" {
			if tr, err = wire.NewUDP(reg); err != nil {
				fmt.Fprintln(os.Stderr, "stpload:", err)
				return 1
			}
		} else {
			tr = wire.NewInproc(0, reg)
		}
		if tr, err = wire.NewImpairment(tr, opts, reg); err != nil {
			fmt.Fprintln(os.Stderr, "stpload:", err)
			return 1
		}

		cfgs := make([]wire.SessionConfig, *sessions)
		inputs := make([]seq.Seq, *sessions)
		// One reseeded source for the whole wave: rand.NewSource(s) and
		// src.Seed(s) yield the same stream, and the source is ~5 KB — per
		// session at 1M it would be gigabytes of construction garbage
		// inflating peak RSS.
		src := rand.NewSource(0)
		rng := rand.New(src)
		for i := range cfgs {
			sessSeed := *seed + int64(wave)*int64(*sessions) + int64(i)
			src.Seed(sessSeed)
			x, err := seq.RandomRepetitionFree(rng, *m, *items)
			if err != nil {
				fmt.Fprintln(os.Stderr, "stpload:", err)
				return 2
			}
			s, r, err := registry.Pair(*proto, params, x)
			if err != nil {
				fmt.Fprintln(os.Stderr, "stpload:", err)
				return 2
			}
			inputs[i] = x
			cfgs[i] = wire.SessionConfig{
				ID:        uint64(i + 1),
				Sender:    s,
				Receiver:  r,
				Input:     x,
				Tick:      *tick,
				Deadline:  *deadline,
				InboxSize: *inboxSize,
				Seed:      sessSeed,
			}
		}

		ctx, cancel := context.WithDeadline(context.Background(), start.Add(*duration+*deadline))
		waveComplete := 0
		if supervised {
			sreports, serr := wire.ServeSupervised(ctx, wire.ChaosServeConfig{
				ServeConfig: wire.ServeConfig{
					Transport: tr, Sessions: cfgs, Obs: reg,
					EventSampleEvery: sampleEvery,
				},
				Chaos: wire.ChaosConfig{
					Crashes: crashSpec.Crashes,
					Policy:  policy,
					Seed:    *seed + int64(wave),
				},
				Rebuild: func(i int) (protocol.Sender, protocol.Receiver, error) {
					return registry.Pair(*proto, params, inputs[i])
				},
			})
			cancel()
			if serr != nil {
				fmt.Fprintln(os.Stderr, "stpload:", serr)
				return 1
			}
			for _, r := range sreports {
				rep.Sessions++
				if r.Complete {
					rep.Completed++
					waveComplete++
				}
				rep.ItemsDelivered += int64(len(r.Output))
				rep.Incarnations += len(r.Incarnations)
				rep.BadWrites += r.BadWrites
				rep.PostStabViolations += r.PostStabViolations
				rep.WatchdogEscalations += r.WatchdogEscalations
				for _, ic := range r.Incarnations {
					if ic.Ended == "crash" {
						rep.Crashes++
						if ic.Scrambled {
							rep.ScrambledRestarts++
						}
					}
				}
				if r.Complete && r.Elapsed > 0 {
					goodputSum += float64(len(r.Output)) / r.Elapsed.Seconds()
					goodputN++
				}
				var d [8]byte
				binary.LittleEndian.PutUint64(d[:], r.CrashScheduleDigest)
				runDigest.Write(d[:])
			}
		} else {
			reports, serr := wire.Serve(ctx, wire.ServeConfig{
				Transport: tr, Sessions: cfgs, Obs: reg,
				EventSampleEvery: sampleEvery,
			})
			cancel()
			if serr != nil {
				fmt.Fprintln(os.Stderr, "stpload:", serr)
				return 1
			}
			for _, r := range reports {
				rep.Sessions++
				if r.Complete {
					rep.Completed++
					waveComplete++
				}
				if r.SafetyViolation != nil {
					rep.Violations++
					fmt.Fprintln(os.Stderr, "stpload:", r.SafetyViolation)
				}
				rep.ItemsDelivered += int64(len(r.Output))
				if r.GoodputItemsPerSec > 0 {
					goodputSum += r.GoodputItemsPerSec
					goodputN++
				}
			}
		}
		rep.Waves++
		if *verbose {
			fmt.Printf("wave %3d: sessions=%d complete=%d elapsed=%v\n",
				wave, len(cfgs), waveComplete, time.Since(waveStart).Round(time.Millisecond))
		}

		if time.Since(start) >= *duration {
			break
		}
		if *rate > 0 {
			// Pace wave starts to the target session-start rate.
			next := waveStart.Add(time.Duration(float64(*sessions) / *rate * float64(time.Second)))
			if wait := time.Until(next); wait > 0 {
				time.Sleep(wait)
			}
			if time.Since(start) >= *duration {
				break
			}
		}
	}
	rep.ElapsedSeconds = time.Since(start).Seconds()
	close(samplerStop)
	if n := int64(runtime.NumGoroutine()); n > goroutinePeak.Load() {
		goroutinePeak.Store(n)
	}
	rep.GoroutinesPeak = int(goroutinePeak.Load())
	rep.MaxRSSBytes = cliutil.MaxRSSBytes()

	snap := reg.Snapshot()
	// The report is an aggregate document; the per-session event stream
	// would dwarf it (and overflows the bounded buffer under load anyway).
	snap.Events, snap.DroppedEvents = nil, 0
	rep.Metrics = snap
	rep.DroppedByCause = make(map[string]int64)
	for name, v := range snap.Counters {
		switch {
		case strings.HasPrefix(name, "wire_frames_tx_total"):
			rep.FramesTx += v
		case strings.HasPrefix(name, "wire_frames_rx_total"):
			rep.FramesRx += v
		case strings.HasPrefix(name, "wire_frames_dropped_total"):
			if v > 0 {
				rep.DroppedByCause[dropCause(name)] = v
				if dropCause(name) == "inbox_full" {
					rep.InboxDrops = v
				}
			}
		case name == "wire_retransmits_total":
			rep.Retransmits = v
		}
	}
	if rep.ElapsedSeconds > 0 {
		rep.FramesPerSec = float64(rep.FramesTx) / rep.ElapsedSeconds
	}
	if goodputN > 0 {
		rep.GoodputMean = goodputSum / float64(goodputN)
	}
	if h, ok := snap.Histograms["wire_batch_frames"]; ok {
		rep.BatchFrames = &h
	}
	if supervised {
		rep.CrashScheduleDigest = fmt.Sprintf("%016x", runDigest.Sum64())
		if h, ok := snap.Histograms["wire_stabilize_time_seconds"]; ok {
			rep.StabilizeTime = &h
		}
	}

	fmt.Printf("stpload: transport=%s proto=%s impair=%s waves=%d sessions=%d complete=%d violations=%d frames/s=%.0f rss=%dMB goroutines_peak=%d\n",
		rep.Transport, rep.Proto, rep.Impair, rep.Waves, rep.Sessions, rep.Completed, rep.Violations,
		rep.FramesPerSec, rep.MaxRSSBytes>>20, rep.GoroutinesPeak)
	if supervised {
		fmt.Printf("stpload: chaos preset=%s policy=%s incarnations=%d crashes=%d scrambled=%d watchdog=%d bad_writes=%d post_stab_violations=%d digest=%s\n",
			rep.CrashPreset, rep.RestartPolicy, rep.Incarnations, rep.Crashes, rep.ScrambledRestarts,
			rep.WatchdogEscalations, rep.BadWrites, rep.PostStabViolations, rep.CrashScheduleDigest)
	}

	if *reportTo != "" {
		if err := writeReport(*reportTo, rep); err != nil {
			fmt.Fprintln(os.Stderr, "stpload:", err)
			return 1
		}
	}
	// Exit contract: load and chaos may slow sessions down or leave them
	// incomplete, but a single prefix-safety violation — or, under
	// crash-restart chaos, a single bad write outside every recovery
	// window — fails the run.
	code := 0
	if rep.Violations > 0 || rep.PostStabViolations > 0 {
		code = 1
	}
	return metrics.Finish("stpload", code, os.Stderr)
}

// runNode joins a distributed cluster as a client node (sender halves)
// and serves assignments until the master shuts the sweep down.
func runNode(master, name, dataHost string, verbose bool) int {
	if err := cliutil.HostPort("master", master); err != nil {
		fmt.Fprintln(os.Stderr, "stpload:", err)
		return 2
	}
	if name == "" {
		name = fmt.Sprintf("cli-%d", os.Getpid())
	}
	cfg := cluster.NodeConfig{
		Master: master, Role: cluster.RoleClient,
		Name: name, DataHost: dataHost,
	}
	if verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "stpload: "+format+"\n", args...)
		}
	}
	if err := cluster.RunNode(context.Background(), cfg); err != nil {
		fmt.Fprintln(os.Stderr, "stpload:", err)
		return 1
	}
	fmt.Printf("stpload: node %s done\n", name)
	return 0
}

// dropCause extracts the cause label from a
// wire_frames_dropped_total{cause="..."} counter name.
func dropCause(name string) string {
	if i := strings.Index(name, `cause="`); i >= 0 {
		rest := name[i+len(`cause="`):]
		if j := strings.IndexByte(rest, '"'); j >= 0 {
			return rest[:j]
		}
	}
	return name
}

// writeReport marshals rep to path ("-" = stdout).
func writeReport(path string, rep report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
