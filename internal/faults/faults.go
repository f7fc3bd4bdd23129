// Package faults layers composable fault plans over the runs model. A
// Plan bundles injections on the three surfaces an STP system exposes:
//
//   - schedule faults, wrapped around any sim.Adversary: burst drops
//     (every droppable copy in a step window is deleted) and
//     partition-then-heal phases (no deliveries on chosen directions for
//     a window) — both are particular resolutions of the channel's legal
//     nondeterminism (Property 1b), i.e. in-model;
//   - channel faults, wrapped around a channel.Half: within-alphabet
//     message substitution ("corruption" that stays inside the paper's
//     finite-alphabet assumption but outside its fault menu — the
//     paper's channels never corrupt);
//   - process faults, injected as scheduler actions: crash-restart of
//     the sender or receiver (local state reset mid-run; the channel and
//     the tapes survive), also outside the model.
//
// The in-model/out-of-model distinction is tracked per plan: the paper's
// theorems promise the tight protocol survives every in-model plan, while
// out-of-model plans are expected to produce counterexamples — the soak
// harness (internal/soak) turns both expectations into checked campaign
// outcomes.
package faults

import (
	"fmt"
	"slices"
	"strings"

	"seqtx/internal/channel"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
)

// Process selects a crash-restart victim.
type Process int

// Crash victims.
const (
	// Sender crashes S.
	Sender Process = iota + 1
	// Receiver crashes R.
	Receiver
)

// String names the process.
func (p Process) String() string {
	switch p {
	case Sender:
		return "sender"
	case Receiver:
		return "receiver"
	default:
		return fmt.Sprintf("Process(%d)", int(p))
	}
}

// HalfWrapper layers a fault onto one directional channel half.
type HalfWrapper func(channel.Half) channel.Half

// Plan is a named, composable bundle of fault injections. The zero value
// is unusable; build plans with NewPlan and the With* methods, which
// return the plan for chaining. A fresh Plan value must be built per run
// (its wrapped adversaries and halves carry per-run state).
type Plan struct {
	name       string
	advWraps   []func(sim.Adversary) sim.Adversary
	halfWraps  map[channel.Dir][]HalfWrapper
	outOfModel bool
	corrupting bool
}

// NewPlan returns an empty (fault-free, in-model) plan.
func NewPlan(name string) *Plan {
	return &Plan{name: name, halfWraps: make(map[channel.Dir][]HalfWrapper)}
}

// Name identifies the plan for reports.
func (p *Plan) Name() string { return p.name }

// InModel reports whether every component of the plan stays within the
// paper's channel model (arbitrary delay, reorder, dup/del as the kind
// permits). Out-of-model components — corruption, crash-restart — clear
// it; for those, a protocol violation is an expected campaign outcome,
// not a bug.
func (p *Plan) InModel() bool { return !p.outOfModel }

// Corrupting reports whether the plan substitutes messages in flight.
// Corrupted runs legitimately fail the channel conservation audit
// (delivered-but-never-sent is precisely what corruption fabricates), so
// auditors skip them.
func (p *Plan) Corrupting() bool { return p.corrupting }

// WithBurstDrop schedules a drop burst: during adversary steps
// [from, from+length) every step that has a droppable copy on dir drops
// one (first in deterministic enabled order). On channels that cannot
// delete (pure dup) the burst is a no-op. A finite burst followed by the
// inner schedule is fair in the limit, and dropping is the del model's
// own fault — in-model.
func (p *Plan) WithBurstDrop(dir channel.Dir, from, length int) *Plan {
	p.advWraps = append(p.advWraps, func(inner sim.Adversary) sim.Adversary {
		return &burstAdv{inner: inner, dir: dir, from: from, until: from + length}
	})
	return p
}

// WithPartition schedules a partition window: during adversary steps
// [from, from+length) no message is delivered or dropped on any of dirs
// (messages are delayed, not lost); the processes keep ticking and any
// non-partitioned direction keeps its turn in the fair rotation
// (sim.Partition). The window then heals. Pure delay — in-model, fair in
// the limit.
func (p *Plan) WithPartition(from, length int, dirs ...channel.Dir) *Plan {
	var shut []string
	for _, d := range []channel.Dir{channel.SToR, channel.RToS} {
		if slices.Contains(dirs, d) {
			shut = append(shut, d.String())
		}
	}
	until := from + length
	p.advWraps = append(p.advWraps, func(inner sim.Adversary) sim.Adversary {
		name := fmt.Sprintf("partition(%s,%d..%d)+%s", strings.Join(shut, ","), from, until, inner.Name())
		return sim.NewPartition(name, inner, func(step int) bool { return step >= from && step < until }, dirs...)
	})
	return p
}

// WithCorruption substitutes every nth send on dir with the previously
// sent message on that half (a value genuinely from the protocol's
// alphabet, so the finite-alphabet assumption holds while the content is
// wrong). Out-of-model: the paper's channels never corrupt (§1).
func (p *Plan) WithCorruption(dir channel.Dir, everyN int) *Plan {
	if everyN < 1 {
		everyN = 1
	}
	p.outOfModel = true
	p.corrupting = true
	p.halfWraps[dir] = append(p.halfWraps[dir], func(h channel.Half) channel.Half {
		return NewCorrupt(h, everyN)
	})
	return p
}

// WithCrash schedules crash-restarts of who at the given adversary step
// indices. Out-of-model: the paper's processes never lose state.
func (p *Plan) WithCrash(who Process, at ...int) *Plan {
	p.outOfModel = true
	steps := make(map[int]bool, len(at))
	for _, s := range at {
		steps[s] = true
	}
	p.advWraps = append(p.advWraps, func(inner sim.Adversary) sim.Adversary {
		return &crashAdv{inner: inner, who: who, at: steps}
	})
	return p
}

// WithScramble schedules scramble-restarts of who at the given adversary
// step indices: the victim restarts into seeded-arbitrary local state
// (the self-stabilization adversary) instead of its initial state. Each
// point's corruption seed is derived from seed and the step index with
// SubSeed, so the whole schedule replays byte-exactly from one seed.
// Out-of-model.
func (p *Plan) WithScramble(who Process, seed int64, at ...int) *Plan {
	p.outOfModel = true
	steps := make(map[int]bool, len(at))
	for _, s := range at {
		steps[s] = true
	}
	p.advWraps = append(p.advWraps, func(inner sim.Adversary) sim.Adversary {
		return &crashAdv{inner: inner, who: who, at: steps, scramble: true, seed: seed}
	})
	return p
}

// SplitMixGamma is what a SplitMix64 stream advances its state by per draw.
const SplitMixGamma = 0x9e3779b97f4a7c15

// SplitMix64 is the repository's one copy of the SplitMix64 step (Steele,
// Lea & Flood, OOPSLA 2014): add the increment, mix. A stream keeps a
// state x, draws SplitMix64(x) and advances x by SplitMixGamma. Changing
// it breaks seed-exact replay of recorded campaigns; the soak, wire and
// chanmodel seed tests pin its outputs.
func SplitMix64(x uint64) uint64 {
	x += SplitMixGamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SubSeed derives a decorrelated sub-seed from seed and lane. One raw seed
// threaded into two consumers hands them identical streams — correlated
// randomness that silently narrows what a campaign explores — so each
// draws from its own lane: every scramble point's corruption, each soak
// stream, each channel-model schedule. The wire supervisor uses the same
// derivation, so a sim scramble and a live scramble with equal (seed,
// lane) corrupt a process identically.
func SubSeed(seed int64, lane uint64) int64 {
	return int64(SplitMix64(uint64(seed) ^ lane))
}

// Link builds a link of the given kind with the plan's channel-fault
// wrappers applied to each half.
func (p *Plan) Link(kind channel.Kind) (*channel.Link, error) {
	sToR, err := channel.New(kind)
	if err != nil {
		return nil, err
	}
	rToS, err := channel.New(kind)
	if err != nil {
		return nil, err
	}
	for _, wrap := range p.halfWraps[channel.SToR] {
		sToR = wrap(sToR)
	}
	for _, wrap := range p.halfWraps[channel.RToS] {
		rToS = wrap(rToS)
	}
	return channel.NewLink(sToR, rToS), nil
}

// Wrap layers the plan's schedule and process faults over inner, outermost
// wrap first (so earlier With* calls see the step stream first).
func (p *Plan) Wrap(inner sim.Adversary) sim.Adversary {
	adv := inner
	for i := len(p.advWraps) - 1; i >= 0; i-- {
		adv = p.advWraps[i](adv)
	}
	return adv
}

// burstAdv drops one droppable copy per step during its window.
type burstAdv struct {
	inner       sim.Adversary
	dir         channel.Dir
	from, until int
	step        int
}

// Name implements sim.Adversary.
func (a *burstAdv) Name() string {
	return fmt.Sprintf("burst-drop(%s,%d..%d)+%s", a.dir, a.from, a.until, a.inner.Name())
}

// Choose implements sim.Adversary.
func (a *burstAdv) Choose(w *sim.World, enabled []trace.Action) trace.Action {
	s := a.step
	a.step++
	if s >= a.from && s < a.until {
		for _, act := range enabled {
			if act.Kind == trace.ActDrop && act.Dir == a.dir {
				return act
			}
		}
	}
	return a.inner.Choose(w, enabled)
}

// crashAdv injects crash-restart (or scramble-restart) actions at fixed
// adversary steps.
type crashAdv struct {
	inner    sim.Adversary
	who      Process
	at       map[int]bool
	step     int
	scramble bool
	seed     int64
}

// Name implements sim.Adversary.
func (a *crashAdv) Name() string {
	verb := "crash"
	if a.scramble {
		verb = "scramble"
	}
	return fmt.Sprintf("%s(%s)+%s", verb, a.who, a.inner.Name())
}

// Choose implements sim.Adversary.
func (a *crashAdv) Choose(w *sim.World, enabled []trace.Action) trace.Action {
	s := a.step
	a.step++
	if a.at[s] {
		if a.scramble {
			pointSeed := SubSeed(a.seed, uint64(s))
			if a.who == Sender {
				return trace.ScrambleS(pointSeed)
			}
			return trace.ScrambleR(pointSeed)
		}
		if a.who == Sender {
			return trace.CrashS()
		}
		return trace.CrashR()
	}
	return a.inner.Choose(w, enabled)
}
