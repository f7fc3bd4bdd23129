// Package fleet is the one description of a fleet of live sessions: the
// paper's handful of parameters (a protocol, its alphabet size m, an
// input, a channel) plus what a live run adds — how many sessions, their
// ids and seeds, their pacing, the link impairment and the crash
// schedule. It owns the four things every front end does with that
// description: declare the flags, validate it, build the sessions, and
// run them into one tally. stpserve, stpload, stpmaster and the cluster
// node are its callers; cluster.Assignment and cluster.SweepConfig embed
// Spec, so its JSON tags are the control plane's.
package fleet

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"time"

	"seqtx/internal/chanmodel"
	"seqtx/internal/cliutil"
	"seqtx/internal/faults"
	"seqtx/internal/obs"
	"seqtx/internal/protocol"
	"seqtx/internal/protocol/hybrid"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
	"seqtx/internal/wire"
)

// Spec describes one fleet.
type Spec struct {
	// Protocol construction parameters (registry.Params).
	Proto   string `json:"proto"`
	M       int    `json:"m"`
	Items   int    `json:"items"`
	Timeout int    `json:"timeout,omitempty"`
	Window  int    `json:"window,omitempty"`
	Cap     int    `json:"cap,omitempty"`

	// Sessions is the fleet size; session j has wire id FirstID+j.
	Sessions int    `json:"sessions"`
	FirstID  uint64 `json:"first_id"`
	// Seed seeds the protocol parameters and the impairment model. Tapes
	// and the crash schedule draw from the seeds their callers hand to
	// Build and Serve (the -seed flag, a wave's offset, a cell's seed).
	Seed int64 `json:"seed"`

	// Tick, Deadline and InboxSize pace every session (wire.SessionConfig).
	Tick      time.Duration `json:"tick_ns"`
	Deadline  time.Duration `json:"deadline_ns"`
	InboxSize int           `json:"inbox,omitempty"`

	// Impair is the link impairment: a preset name or a channel-model
	// spec ("" or "none" = clean link).
	Impair string `json:"impair,omitempty"`
	// Chaos names the crash-restart preset; set, wire.Serve runs the
	// fleet's sessions supervised, crash-restarting them in place on the
	// preset's schedule ("" or "none" = plain sessions). A half fleet
	// applies only the crash points that target its own half.
	Chaos string `json:"chaos,omitempty"`
	// RestartPolicy optionally overrides the preset's per-point scramble
	// flags ("", "preset", "amnesia", "scramble").
	RestartPolicy string `json:"restart_policy,omitempty"`
}

// Default returns the flag defaults the front ends share.
func Default() Spec {
	return Spec{
		Proto: "alpha", M: 8, Items: 6, Timeout: hybrid.DefaultTimeout, Window: 4,
		Sessions: 8, FirstID: 1, Seed: 1,
		Tick: wire.DefaultTick, Deadline: 30 * time.Second,
		Impair: "none", Chaos: "none", RestartPolicy: "preset",
	}
}

// AddParamFlags declares the flags a sweep shares across its cells;
// each default is the receiver's current field value.
func (s *Spec) AddParamFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Proto, "proto", s.Proto, "protocol: "+strings.Join(registry.ProtocolNames(), "|"))
	fs.IntVar(&s.M, "m", s.M, "domain / sender-alphabet size parameter")
	fs.IntVar(&s.Items, "items", s.Items, "input items per session (repetition-free, so at most -m)")
	fs.IntVar(&s.Timeout, "timeout", s.Timeout, "hybrid timeout (ticks)")
	fs.IntVar(&s.Window, "window", s.Window, "modseq sequence-number window")
	fs.IntVar(&s.Cap, "cap", s.Cap, "channel-capacity bound c for the stab protocol (0 = its default)")
	fs.Int64Var(&s.Seed, "seed", s.Seed, "base seed (every session's tape and jitter derive from it)")
	fs.DurationVar(&s.Tick, "tick", s.Tick, "timer tick: receiver pacing, and the retransmission timeout's initial value and ceiling (the measured round trip sets it between tick/4 and tick; fresh sends do not wait for it)")
	fs.DurationVar(&s.Deadline, "deadline", s.Deadline, "per-session deadline (0 = none)")
	fs.StringVar(&s.RestartPolicy, "restart-policy", s.RestartPolicy, "restart state for crashed processes: preset|amnesia|scramble")
}

// AddFlags declares every fleet flag: the shared parameters plus the
// four a sweep spells as axes instead.
func (s *Spec) AddFlags(fs *flag.FlagSet) {
	s.AddParamFlags(fs)
	fs.IntVar(&s.Sessions, "sessions", s.Sessions, "concurrent sessions (per wave)")
	fs.IntVar(&s.InboxSize, "inbox", s.InboxSize, "per-session inbox capacity (0 = wire default)")
	fs.StringVar(&s.Impair, "impair", s.Impair, "impairment preset ("+strings.Join(wire.ImpairPresetNames(), "|")+") or channel-model spec ("+chanmodel.SpecSyntax+")")
	fs.StringVar(&s.Chaos, "crash-preset", s.Chaos, "crash-restart chaos preset (e.g. crash-scramble-both); runs sessions supervised")
}

// Validate is the one check of a fleet description: it rejects what no
// front end can run and clamps nothing.
func (s *Spec) Validate() error {
	for _, err := range []error{
		cliutil.Positive("sessions", s.Sessions),
		cliutil.Positive("items", s.Items),
		cliutil.Positive("m", s.M),
		cliutil.NonNegative("timeout", s.Timeout),
		cliutil.NonNegative("inbox", s.InboxSize),
	} {
		if err != nil {
			return err
		}
	}
	if s.Tick <= 0 || s.Deadline < 0 {
		return fmt.Errorf("-tick must be > 0 and -deadline >= 0, got %v and %v", s.Tick, s.Deadline)
	}
	if s.Items > s.M {
		return fmt.Errorf("-items %d exceeds -m %d (inputs are repetition-free); raise -m", s.Items, s.M)
	}
	// Build the protocol too, so a cell its nodes could not run (hybrid
	// with -timeout 0, an unknown -proto) fails here, once. The registry
	// caches specs by key, so Build's own lookup costs nothing more.
	if _, err := registry.Protocol(s.Proto, s.Params()); err != nil {
		return err
	}
	if _, err := s.Impairment(); err != nil {
		return err
	}
	_, err := s.chaos(0, 0)
	return err
}

// Supervised reports whether the fleet runs under crash-restart chaos.
func (s *Spec) Supervised() bool { return s.Chaos != "" && s.Chaos != "none" }

// Params maps the spec's protocol parameters to the registry's.
func (s *Spec) Params() registry.Params {
	return registry.Params{M: s.M, Timeout: s.Timeout, Window: s.Window, Seed: s.Seed, Cap: s.Cap}
}

// Impairment resolves Impair, seeded with Seed.
func (s *Spec) Impairment() (wire.Options, error) {
	if s.Impair == "" {
		return wire.Options{}, nil
	}
	return wire.ImpairSpec(s.Impair, s.Seed)
}

// chaos resolves Chaos and RestartPolicy into the supervisor's config,
// nil for an unsupervised fleet. A half fleet keeps only the crash
// points that target its own half — the other half's processes live on
// the peer machine.
func (s *Spec) chaos(seed int64, half wire.End) (*wire.ChaosConfig, error) {
	policy, err := wire.ParseRestartPolicy(s.RestartPolicy)
	if err != nil || !s.Supervised() {
		return nil, err
	}
	preset, err := faults.PresetSpec(s.Chaos)
	if err != nil {
		return nil, err
	}
	if !preset.ProcessFaults() {
		return nil, fmt.Errorf("preset %q schedules no process crashes; link impairments go via -impair", s.Chaos)
	}
	pts := preset.Crashes
	if half != 0 {
		who := faults.Sender
		if half == wire.ReceiverEnd {
			who = faults.Receiver
		}
		pts = slices.DeleteFunc(slices.Clone(pts), func(p faults.CrashPoint) bool { return p.Who != who })
	}
	return &wire.ChaosConfig{Crashes: pts, Policy: policy, Seed: seed}, nil
}

// WaveBase is the tape-seed base of a CLI's wave w (stpserve runs only
// wave 0): ids restart at FirstID every wave, and session i (from 0) of
// wave w draws from Seed + w*Sessions + i.
func (s *Spec) WaveBase(w int) int64 {
	return s.Seed + int64(w)*int64(s.Sessions) - int64(s.FirstID)
}

// Build builds the fleet's session configs under the one seed rule:
// session id's tape seed and session seed are both base + int64(id).
// half 0 runs both ends in-process; the two halves of a split fleet call
// this with the same spec and base and so derive the same tapes — the
// receiver half needs X for the prefix audit, and shipping tapes through
// a control plane would couple its size to the data plane's. The spec
// must have passed Validate.
func (s *Spec) Build(half wire.End, base int64) ([]wire.SessionConfig, error) {
	params := s.Params()
	// One reseeded source per fleet: rand.NewSource(x) and src.Seed(x)
	// yield the same stream, and a source is ~5 KB — one per session at
	// 1M sessions is gigabytes of garbage inflating peak RSS.
	src := rand.NewSource(0)
	rng := rand.New(src)
	cfgs := make([]wire.SessionConfig, s.Sessions)
	for j := range cfgs {
		id := s.FirstID + uint64(j)
		seed := base + int64(id)
		src.Seed(seed)
		x, err := seq.RandomRepetitionFree(rng, s.M, s.Items)
		if err != nil {
			return nil, err
		}
		sender, receiver, err := registry.Pair(s.Proto, params, x)
		if err != nil {
			return nil, err
		}
		cfgs[j] = wire.SessionConfig{
			ID: id, Sender: sender, Receiver: receiver, Input: x,
			Tick: s.Tick, Deadline: s.Deadline, InboxSize: s.InboxSize,
			Seed: seed, Half: half,
		}
	}
	return cfgs, nil
}

// Transport opens the named loopback transport ("udp", else inproc)
// behind the spec's impairment. Build the sessions first: they are where
// a bad spec fails, and they hold no sockets.
func (s *Spec) Transport(name string, reg *obs.Registry) (wire.Transport, error) {
	if name != "udp" {
		return s.Impaired(wire.NewInproc(0, reg), reg)
	}
	udp, err := wire.NewUDP(reg)
	if err != nil {
		return nil, err
	}
	return s.Impaired(udp, reg)
}

// Impaired wraps tr in the spec's impairment (a pass-through on a clean
// link); on error tr is closed.
func (s *Spec) Impaired(tr wire.Transport, reg *obs.Registry) (wire.Transport, error) {
	opts, err := s.Impairment()
	if err == nil {
		var im *wire.Impairment
		if im, err = wire.NewImpairment(tr, opts, reg); err == nil {
			return im, nil
		}
	}
	tr.Close()
	return nil, err
}

// Serve runs cfg's sessions through wire.Serve — supervised, on a crash
// schedule seeded chaosSeed, when the spec names a chaos preset — and folds
// the reports into t. Like wire.Serve, it closes the transport on every path.
func (s *Spec) Serve(ctx context.Context, cfg wire.ServeConfig, chaosSeed int64, t *Tally) (Reports, error) {
	var half wire.End
	if len(cfg.Sessions) > 0 {
		half = cfg.Sessions[0].Half
	}
	var err error
	if cfg.Chaos, err = s.chaos(chaosSeed, half); err != nil {
		cfg.Transport.Close()
		return nil, err
	}
	params := s.Params()
	cfg.Rebuild = func(i int) (protocol.Sender, protocol.Receiver, error) {
		return registry.Pair(s.Proto, params, cfg.Sessions[i].Input)
	}
	out, err := wire.Serve(ctx, cfg)
	t.Add(out)
	return out, err
}

// Reports are a fleet's per-session reports, in session order.
type Reports []wire.Report

// Latencies lists the completed sessions' lifetimes in session order.
func (r Reports) Latencies() []time.Duration {
	var out []time.Duration
	for _, p := range r {
		if p.Complete && p.Elapsed > 0 {
			out = append(out, p.Elapsed)
		}
	}
	return out
}

// Violations lists, for a front end to print, every session that failed
// its audit: the strict prefix audit, or under supervision a bad write
// outside every recovery window.
func (r Reports) Violations() []error {
	var out []error
	for _, p := range r {
		if p.SafetyViolation != nil {
			out = append(out, p.SafetyViolation)
		}
		if c := p.Chaos; c != nil && c.PostStabViolations > 0 {
			out = append(out, fmt.Errorf("session %d: %d post-stabilization violations", p.ID, c.PostStabViolations))
		}
	}
	return out
}

// Tally accumulates fleets' outcomes; the zero value is ready.
type Tally struct {
	Sessions, Completed int
	// Violations counts sessions that broke the strict prefix audit,
	// Unstable supervised sessions with post-stabilization bad writes.
	Violations, Unstable int
	ItemsDelivered       int64

	// Chaos totals (zero for unsupervised fleets).
	Incarnations, Crashes, ScrambledRestarts           int
	WatchdogEscalations, BadWrites, PostStabViolations int

	goodputSum float64
	goodputN   int
	digest     hash.Hash64
}

// Add folds one fleet's reports into the tally.
func (t *Tally) Add(r Reports) {
	for _, p := range r {
		t.Sessions++
		if p.Complete {
			t.Completed++
		}
		if p.SafetyViolation != nil {
			t.Violations++
		}
		t.ItemsDelivered += int64(len(p.Output))
		if p.GoodputItemsPerSec > 0 {
			t.goodputSum += p.GoodputItemsPerSec
			t.goodputN++
		}
		c := p.Chaos
		if c == nil {
			continue
		}
		if c.PostStabViolations > 0 {
			t.Unstable++
		}
		t.Incarnations += len(c.Incarnations)
		t.BadWrites += c.BadWrites
		t.PostStabViolations += c.PostStabViolations
		t.WatchdogEscalations += c.WatchdogEscalations
		for _, ic := range c.Incarnations {
			if ic.Ended == "crash" {
				t.Crashes++
				if ic.Scrambled {
					t.ScrambledRestarts++
				}
			}
		}
		if t.digest == nil {
			t.digest = fnv.New64a()
		}
		t.digest.Write(binary.LittleEndian.AppendUint64(nil, c.CrashScheduleDigest))
	}
}

// GoodputMean is the mean per-session goodput in items per second.
func (t *Tally) GoodputMean() float64 {
	if t.goodputN == 0 {
		return 0
	}
	return t.goodputSum / float64(t.goodputN)
}

// CrashScheduleDigest folds every supervised session's realized-schedule
// digest: it fingerprints the schedule this run realized, which on a live
// engine depends on timing (only manual-engine runs reproduce it). Empty
// when nothing ran supervised.
func (t *Tally) CrashScheduleDigest() string {
	if t.digest == nil {
		return ""
	}
	return fmt.Sprintf("%016x", t.digest.Sum64())
}

// dropPrefix opens the name of every wire drop counter; the cause label
// follows.
const dropPrefix = `wire_frames_dropped_total{cause="`

// WireCounters folds a registry's counters into what every report
// carries: frames sent and received over both directions, and the
// non-zero drop counts by cause.
func WireCounters(counters map[string]int64) (tx, rx int64, drops map[string]int64) {
	drops = make(map[string]int64)
	for name, v := range counters {
		switch {
		case strings.HasPrefix(name, "wire_frames_tx_total"):
			tx += v
		case strings.HasPrefix(name, "wire_frames_rx_total"):
			rx += v
		case v > 0 && strings.HasPrefix(name, dropPrefix):
			drops[strings.TrimSuffix(name[len(dropPrefix):], `"}`)] = v
		}
	}
	return tx, rx, drops
}
