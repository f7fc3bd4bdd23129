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
// (wire.ServeConfig.Chaos): live endpoint processes are killed mid-run at
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
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"seqtx/internal/cliutil"
	"seqtx/internal/cluster"
	"seqtx/internal/fleet"
	"seqtx/internal/obs"
	"seqtx/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
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

// run executes one stpload command line (args without the program name)
// and returns its exit code: 0 when no session violated safety, 1 on a
// violation or a failure, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stpload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var metrics cliutil.Metrics
	spec := fleet.Default()
	spec.Sessions = 64
	spec.AddFlags(fs)
	var (
		rate      = fs.Float64("rate", 0, "target session-start rate per second (0 = unpaced waves)")
		duration  = fs.Duration("duration", 5*time.Second, "load window: new waves start until this elapses")
		transport = fs.String("transport", "inproc", "transport: inproc|udp")
		evSample  = fs.Uint64("event-sample", 0, "emit lifecycle events for every Nth session id (0 = auto-scale to fleet size, 1 = every session)")
		reportTo  = fs.String("report", "", "write the JSON report to this file (\"-\" = stdout)")
		verbose   = fs.Bool("v", false, "print one line per wave")

		master   = fs.String("master", "", "join a cluster as a client node: stpmaster control address (host:port); load flags then come from the assignment")
		nodeName = fs.String("node-name", "", "cluster node name (default cli-<pid>)")
		dataHost = fs.String("data-host", "", "host/IP the data-plane UDP sockets bind on (default 127.0.0.1; on a real fleet, the interface the peer can reach)")
	)
	metrics.AddFlags(fs)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if *master != "" {
		return cluster.NodeMain("stpload", cluster.RoleClient, *master, *nodeName, *dataHost, *verbose)
	}

	err := spec.Validate()
	switch {
	case err != nil:
	case *duration <= 0 || *rate < 0:
		err = fmt.Errorf("-duration must be > 0 and -rate >= 0, got %v and %g", *duration, *rate)
	case *transport != "inproc" && *transport != "udp":
		err = fmt.Errorf("unknown transport %q (have inproc, udp)", *transport)
	}
	if err != nil {
		fmt.Fprintln(stderr, "stpload:", err)
		return 2
	}
	// Auto-scale event sampling: the obs event ring holds 4096 entries, so
	// at large fleets per-session lifecycle events are sampled down to
	// roughly half the ring per wave (counters stay exact regardless).
	sampleEvery := *evSample
	if sampleEvery == 0 {
		sampleEvery = max(1, uint64(2*spec.Sessions)/4096)
	}

	// The report always embeds a metrics snapshot, so the registry is
	// unconditionally live; -metrics additionally writes it standalone.
	reg := metrics.Registry()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	rep := report{
		Transport:      *transport,
		Proto:          spec.Proto,
		Impair:         spec.Impair,
		SessionsPerWav: spec.Sessions,
	}
	// Crash-restart chaos: a -crash-preset runs every wave supervised, and
	// the report gains the chaos block.
	supervised := spec.Supervised()
	if supervised {
		policy, _ := wire.ParseRestartPolicy(spec.RestartPolicy) // Validate parsed it
		rep.CrashPreset = spec.Chaos
		rep.RestartPolicy = policy.String()
	}

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

	var tally fleet.Tally
	start, cpuStart := time.Now(), cliutil.CPUTime()
	for wave := 0; ; wave++ {
		// One wave = one fleet of -sessions concurrent transfers over a
		// fresh transport (Serve owns and closes it); the obs registry is
		// shared so counters and histograms aggregate across waves. The
		// wave's crash schedule is seeded seed + wave.
		waveStart := time.Now()
		cfgs, err := spec.Build(0, spec.WaveBase(wave))
		if err != nil {
			fmt.Fprintln(stderr, "stpload:", err)
			return 2
		}
		tr, err := spec.Transport(*transport, reg)
		if err != nil {
			fmt.Fprintln(stderr, "stpload:", err)
			return 1
		}
		ctx, cancel := context.WithDeadline(context.Background(), start.Add(*duration+spec.Deadline))
		before := tally.Completed
		out, err := spec.Serve(ctx, wire.ServeConfig{
			Transport: tr, Sessions: cfgs, Obs: reg, EventSampleEvery: sampleEvery,
		}, spec.Seed+int64(wave), &tally)
		cancel()
		if err != nil {
			fmt.Fprintln(stderr, "stpload:", err)
			return 1
		}
		for _, v := range out.Violations() {
			fmt.Fprintln(stderr, "stpload:", v)
		}
		rep.Waves++
		if *verbose {
			fmt.Fprintf(stdout, "wave %3d: sessions=%d complete=%d elapsed=%v\n",
				wave, len(cfgs), tally.Completed-before, time.Since(waveStart).Round(time.Millisecond))
		}

		if time.Since(start) >= *duration {
			break
		}
		if *rate > 0 {
			// Pace wave starts to the target session-start rate.
			next := waveStart.Add(time.Duration(float64(spec.Sessions) / *rate * float64(time.Second)))
			if wait := time.Until(next); wait > 0 {
				time.Sleep(wait)
			}
			if time.Since(start) >= *duration {
				break
			}
		}
	}
	rep.ElapsedSeconds = time.Since(start).Seconds()
	cpu := cliutil.CPUTime() - cpuStart
	close(samplerStop)
	rep.GoroutinesPeak = int(max(goroutinePeak.Load(), int64(runtime.NumGoroutine())))
	rep.MaxRSSBytes = cliutil.MaxRSSBytes()

	rep.Sessions = tally.Sessions
	rep.Completed = tally.Completed
	rep.Violations = tally.Violations
	rep.ItemsDelivered = tally.ItemsDelivered
	rep.GoodputMean = tally.GoodputMean()
	rep.Incarnations = tally.Incarnations
	rep.Crashes = tally.Crashes
	rep.ScrambledRestarts = tally.ScrambledRestarts
	rep.WatchdogEscalations = tally.WatchdogEscalations
	rep.BadWrites = tally.BadWrites
	rep.PostStabViolations = tally.PostStabViolations
	rep.CrashScheduleDigest = tally.CrashScheduleDigest()

	snap := reg.Snapshot()
	// The report is an aggregate document; the per-session event stream
	// would dwarf it (and overflows the bounded buffer under load anyway).
	snap.Events, snap.DroppedEvents = nil, 0
	rep.Metrics = snap
	rep.FramesTx, rep.FramesRx, rep.DroppedByCause = fleet.WireCounters(snap.Counters)
	rep.InboxDrops = rep.DroppedByCause["inbox_full"]
	rep.Retransmits = snap.Counters["wire_retransmits_total"]
	if rep.ElapsedSeconds > 0 {
		rep.FramesPerSec = float64(rep.FramesTx) / rep.ElapsedSeconds
	}
	if h, ok := snap.Histograms["wire_batch_frames"]; ok {
		rep.BatchFrames = &h
	}
	if h, ok := snap.Histograms["wire_stabilize_time_seconds"]; ok && supervised {
		rep.StabilizeTime = &h
	}

	fmt.Fprintf(stdout, "stpload: transport=%s proto=%s impair=%s waves=%d sessions=%d complete=%d violations=%d frames/s=%.0f rss=%dMB goroutines_peak=%d\n",
		rep.Transport, rep.Proto, rep.Impair, rep.Waves, rep.Sessions, rep.Completed, rep.Violations,
		rep.FramesPerSec, rep.MaxRSSBytes>>20, rep.GoroutinesPeak)
	// Cost per delivered item: CPU, and worker parks (precise: on a timerfd).
	items := float64(max(rep.ItemsDelivered, 1))
	fmt.Fprintf(stdout, "stpload: per item cpu_us=%.2f parks precise=%.3f coarse=%.3f\n", float64(cpu.Microseconds())/items,
		float64(snap.Counters[`wire_worker_parks_total{park="precise"}`])/items, float64(snap.Counters[`wire_worker_parks_total{park="coarse"}`])/items)
	if supervised {
		fmt.Fprintf(stdout, "stpload: chaos preset=%s policy=%s incarnations=%d crashes=%d scrambled=%d watchdog=%d bad_writes=%d post_stab_violations=%d digest=%s\n",
			rep.CrashPreset, rep.RestartPolicy, rep.Incarnations, rep.Crashes, rep.ScrambledRestarts,
			rep.WatchdogEscalations, rep.BadWrites, rep.PostStabViolations, rep.CrashScheduleDigest)
	}

	if *reportTo != "" {
		if err := cliutil.WriteJSON(*reportTo, stdout, rep); err != nil {
			fmt.Fprintln(stderr, "stpload:", err)
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
	return metrics.Finish("stpload", code, stderr)
}
