package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"seqtx/internal/channel"
	"seqtx/internal/mc"
	"seqtx/internal/obs"
	"seqtx/internal/protocol"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
	"seqtx/internal/wire"
)

// workload is one set of inputs the benchmark runs. An op is one wave of
// sessions (fleets) or one exhaustive exploration (mc); every workload is a
// closed loop of one op at a time.
type workload struct {
	name string
	// warmupOps is the fixed number of ops, identical to timed ops, that
	// set-up runs before the first timed op.
	warmupOps int
	// timeout bounds one attempt at an op (the context handed to wire.Serve);
	// it is what a stalled attempt costs. Explorations take no context and
	// have none.
	timeout time.Duration
	// fleet is nil for the model-checker workload.
	fleet *fleetSpec
}

// fleetSpec sizes a wave: sessions transfers of an items-long tape each.
type fleetSpec struct {
	proto    string
	params   registry.Params
	sessions int
	items    int
	// ramp selects ramp-mod-m tapes (start drawn from the seed) for the
	// windowed protocols; otherwise tapes are random repetition-free, as
	// alpha requires.
	ramp   bool
	udp    bool
	impair string
}

// The sizes put each wave's median near 17, 95 and 33 ms on two cores and an
// exploration near 200 ms, so a 20-second run times hundreds of ops; at these
// sizes the fleets are timer-bound (see README.md, "Timer-bound regime"). The
// in-process fleets run 128 sessions a wave rather than stpload's 256: the
// engine's livelock (README.md, "Known hazard") stalls waves in proportion to
// the timers they arm, and 128 halves the stalled attempts.
var workloads = []workload{
	{
		name:      "fleet_inproc",
		warmupOps: 40,
		timeout:   250 * time.Millisecond,
		fleet: &fleetSpec{
			proto: "alpha", params: registry.Params{M: 8},
			sessions: 128, items: 8, impair: "none",
		},
	},
	{
		name:      "fleet_udp_window",
		warmupOps: 8,
		timeout:   time.Second,
		fleet: &fleetSpec{
			proto: "selrepeat", params: registry.Params{M: 64, Window: 16},
			sessions: 64, items: 64, ramp: true, udp: true, impair: "none",
		},
	},
	{
		name:      "fleet_inproc_lossy",
		warmupOps: 20,
		timeout:   500 * time.Millisecond,
		fleet: &fleetSpec{
			proto: "alpha", params: registry.Params{M: 8},
			sessions: 128, items: 8, impair: "iid-loss(p=0.1)",
		},
	},
	{
		name:      "mc_explore",
		warmupOps: 4,
	},
}

// fleetTick is every session's pacing tick, stpload's default.
const fleetTick = time.Millisecond

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runner executes the ops of one workload. Op i's inputs depend only on the
// seed and i. reg, when non-nil, is attached as the product's obs sink and
// spans records the harness's own spans (both only in the traced pass). An
// error is a harness failure (a socket could not be opened); what the product
// did wrong is reported in the opResult.
type runner interface {
	op(i int, reg *obs.Registry, spans *spanLog) (opResult, error)
}

func newRunner(w workload, seed int64) (runner, error) {
	if w.fleet != nil {
		return newFleet(w, seed)
	}
	return newExplorer(seed)
}

// fleet runs waves the way cmd/stpload does: fresh sessions from
// registry.Pair, a fresh transport wrapped in wire.NewImpairment, wire.Serve.
type fleet struct {
	spec    fleetSpec
	timeout time.Duration
	seed    int64
	opts    wire.Options
	clock   *opClock
}

func newFleet(w workload, seed int64) (*fleet, error) {
	opts, err := wire.ImpairSpec(w.fleet.impair, seed)
	if err != nil {
		return nil, err
	}
	// Build the protocol's tables now, so set-up pays for them and no op does.
	if _, err := registry.Protocol(w.fleet.proto, w.fleet.params); err != nil {
		return nil, err
	}
	return &fleet{spec: *w.fleet, timeout: w.timeout, seed: seed, opts: opts, clock: newOpClock()}, nil
}

// tapes generates wave i's inputs: session j uses seed + i*sessions + j, as
// stpload does. The product sees only the tapes.
func (f *fleet) tapes(i int) []seq.Seq {
	inputs := make([]seq.Seq, f.spec.sessions)
	src := rand.NewSource(0)
	rng := rand.New(src)
	for j := range inputs {
		src.Seed(f.sessionSeed(i, j))
		inputs[j] = makeTape(rng, f.spec)
	}
	return inputs
}

func (f *fleet) sessionSeed(i, j int) int64 {
	return f.seed + int64(i)*int64(f.spec.sessions) + int64(j)
}

func makeTape(rng *rand.Rand, spec fleetSpec) seq.Seq {
	if spec.ramp {
		start := rng.Intn(spec.params.M)
		x := make(seq.Seq, spec.items)
		for k := range x {
			x[k] = seq.Item((start + k) % spec.params.M)
		}
		return x
	}
	x, err := seq.RandomRepetitionFree(rng, spec.params.M, spec.items)
	if err != nil {
		panic(err) // items <= M for every workload in the table
	}
	return x
}

// sessions builds wave i's session configs — one registry.Pair per tape.
func (f *fleet) sessions(i int, inputs []seq.Seq) ([]wire.SessionConfig, error) {
	cfgs := make([]wire.SessionConfig, len(inputs))
	for j, x := range inputs {
		s, r, err := registry.Pair(f.spec.proto, f.spec.params, x)
		if err != nil {
			return nil, err
		}
		cfgs[j] = wire.SessionConfig{
			ID: uint64(j + 1), Sender: s, Receiver: r, Input: x,
			Tick: fleetTick, Seed: f.sessionSeed(i, j),
		}
	}
	return cfgs, nil
}

// transport builds wave i's link. The channel model's decision schedule is
// seeded per wave: with one seed for the whole run, every wave would replay the
// same loss pattern and a run would measure that one pattern.
func (f *fleet) transport(i int, reg *obs.Registry) (wire.Transport, error) {
	var tr wire.Transport = wire.NewInproc(0, reg)
	if f.spec.udp {
		udp, err := wire.NewUDP(reg)
		if err != nil {
			return nil, err
		}
		tr = udp
	}
	opts := f.opts
	opts.ModelSeed = f.seed + int64(i)
	return wire.NewImpairment(tr, opts, reg)
}

func (f *fleet) op(i int, reg *obs.Registry, spans *spanLog) (opResult, error) {
	inputs := f.tapes(i)

	f.clock.start()
	cfgs, err := f.sessions(i, inputs)
	if err != nil {
		return opResult{}, err
	}
	tBuilt := time.Now()
	tr, err := f.transport(i, reg)
	if err != nil {
		return opResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), f.timeout)
	reports, err := wire.Serve(ctx, wire.ServeConfig{Transport: tr, Sessions: cfgs, Obs: reg})
	cancel()
	if err != nil {
		return opResult{}, err
	}
	res, t1 := f.clock.stop()
	t0 := f.clock.t0
	res.build = tBuilt.Sub(t0)

	spans.add("registry.pair", i, t0, tBuilt.Sub(t0))
	spans.add("wire.serve", i, tBuilt, t1.Sub(tBuilt))
	checkReports(&res, reports, inputs)
	spans.add("bench.check", i, t1, time.Since(t1))
	return res, nil
}

// checkReports is the fleet correctness gate: no report may carry a safety
// violation, and a complete session's output must equal its input. A session
// that merely did not finish before the time-out makes the attempt stalled —
// failed (runOp retries it), but not incorrect.
func checkReports(res *opResult, reports []wire.Report, inputs []seq.Seq) {
	res.done = make([]float64, 0, len(reports))
	for j, r := range reports {
		res.units += len(r.Output)
		res.inboxDrops += r.InboxDrops
		switch {
		case r.SafetyViolation != nil:
			res.breach = r.SafetyViolation
		case !r.Output.IsPrefixOf(inputs[j]):
			res.breach = fmt.Errorf("session %d: output %s is not a prefix of input %s", r.ID, r.Output, inputs[j])
		case r.Complete && !r.Output.Equal(inputs[j]):
			res.breach = fmt.Errorf("session %d: complete with output %s != input %s", r.ID, r.Output, inputs[j])
		}
		if r.Complete {
			res.done = append(res.done, float64(r.Elapsed.Nanoseconds())/1e6)
		} else {
			res.missed++
		}
	}
	res.stalled = res.missed > 0 && res.breach == nil
	res.failed = res.missed > 0 || res.breach != nil
}

// explorer runs mc.Explore on alpha(m=3) over a deletion channel. The tape is
// a seeded permutation of <0,1,2>; the protocol treats items symmetrically,
// so every permutation has the same 14 248 reachable states.
type explorer struct {
	spec  protocol.Spec
	input seq.Seq
	clock *opClock
	first *mc.ExploreResult
}

const (
	explorerStates   = 14248
	explorerMaxDepth = 20
)

func newExplorer(seed int64) (*explorer, error) {
	spec, err := registry.Protocol("alpha", registry.Params{M: 3})
	if err != nil {
		return nil, err
	}
	input, err := seq.RandomRepetitionFree(rand.New(rand.NewSource(seed)), 3, 3)
	if err != nil {
		return nil, err
	}
	return &explorer{spec: spec, input: input, clock: newOpClock()}, nil
}

func (e *explorer) op(i int, reg *obs.Registry, spans *spanLog) (opResult, error) {
	cfg := mc.ExploreConfig{MaxDepth: explorerMaxDepth, MaxStates: 1 << 22}
	cfg.Obs = reg

	e.clock.start()
	got, err := mc.Explore(e.spec, e.input, channel.KindDel, cfg)
	if err != nil {
		return opResult{}, err
	}
	res, _ := e.clock.stop()
	res.units = got.States
	spans.add("mc.explore", i, e.clock.t0, res.wall)
	res.done = []float64{float64(res.wall.Nanoseconds()) / 1e6}
	if e.first == nil {
		e.first = got
	}
	// Correctness gate: the exact state count (the depth cap, not the state
	// cap, ends the search), no violation, and the same States/Depth on
	// every op.
	switch {
	case got.Violation != nil:
		res.breach = fmt.Errorf("exploration found a safety violation: %v", got.Violation.Err)
	case got.States != explorerStates:
		res.breach = fmt.Errorf("exploration visited %d states, want exactly %d", got.States, explorerStates)
	case got.States != e.first.States || got.Depth != e.first.Depth:
		res.breach = fmt.Errorf("exploration not deterministic: states/depth %d/%d, first op %d/%d", got.States, got.Depth, e.first.States, e.first.Depth)
	}
	res.failed = res.breach != nil
	return res, nil
}
