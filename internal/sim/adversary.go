package sim

import (
	"fmt"
	"math/rand"

	"seqtx/internal/channel"
	"seqtx/internal/trace"
)

// Adversary resolves the environment's nondeterminism: at each step it
// picks one of the enabled actions. The paper's channels "can arbitrarily
// delay messages and cannot discriminate between deliverable messages"
// (Property 1b); adversaries are particular deterministic or seeded
// resolutions of that freedom.
type Adversary interface {
	// Name identifies the adversary for reports.
	Name() string
	// Choose picks one of the enabled actions (enabled is never empty:
	// ticks are always available).
	Choose(w *World, enabled []trace.Action) trace.Action
}

// Random picks uniformly among enabled actions, with a configurable
// weight multiplier for drop actions (0 disables drops entirely).
type Random struct {
	rng        *rand.Rand
	dropWeight int
	name       string
}

var _ Adversary = (*Random)(nil)

// NewRandom returns a seeded uniform adversary that never drops.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed)), dropWeight: 0, name: fmt.Sprintf("random(%d)", seed)}
}

// NewRandomDropper returns a seeded adversary that includes drop actions
// with the given relative weight (1 = same as any other action).
func NewRandomDropper(seed int64, dropWeight int) *Random {
	return &Random{
		rng:        rand.New(rand.NewSource(seed)),
		dropWeight: dropWeight,
		name:       fmt.Sprintf("random-drop(%d,w=%d)", seed, dropWeight),
	}
}

// Name implements Adversary.
func (a *Random) Name() string { return a.name }

// Choose implements Adversary. It samples by cumulative weight in two
// passes over enabled — no per-step materialization of a weighted slice.
// The selection (and the consumed rng stream: one Intn of the total
// weight) is identical to picking uniformly from the slice in which every
// action is repeated weight-many times, so seeded runs are unchanged.
func (a *Random) Choose(_ *World, enabled []trace.Action) trace.Action {
	total := 0
	for _, act := range enabled {
		total += a.weight(act)
	}
	if total == 0 {
		// All actions were drops with weight 0; fall back to the raw set.
		return enabled[a.rng.Intn(len(enabled))]
	}
	r := a.rng.Intn(total)
	for _, act := range enabled {
		r -= a.weight(act)
		if r < 0 {
			return act
		}
	}
	return enabled[len(enabled)-1]
}

func (a *Random) weight(act trace.Action) int {
	if act.Kind == trace.ActDrop {
		return a.dropWeight
	}
	return 1
}

// RoundRobin is the friendly deterministic scheduler: the fair Rotation
// and nothing else. Deterministic, hence reproducible. It never drops or
// duplicates.
type RoundRobin struct{ rot Rotation }

var _ Adversary = (*RoundRobin)(nil)

// NewRoundRobin returns the deterministic fair scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Adversary.
func (a *RoundRobin) Name() string { return "round-robin" }

// Choose implements Adversary.
func (a *RoundRobin) Choose(w *World, _ []trace.Action) trace.Action {
	return a.rot.Next(w, a.rot.Fair)
}

// Replayer exercises duplication: it follows RoundRobin but every period
// steps it re-delivers a random already-sent message on the S→R half.
// Meaningful on dup channels, where old messages remain deliverable.
type Replayer struct {
	inner  *RoundRobin
	rng    *rand.Rand
	period int
	count  int
}

var _ Adversary = (*Replayer)(nil)

// NewReplayer returns a replaying adversary with the given period (>= 1).
func NewReplayer(seed int64, period int) *Replayer {
	if period < 1 {
		period = 1
	}
	return &Replayer{inner: NewRoundRobin(), rng: rand.New(rand.NewSource(seed)), period: period}
}

// Name implements Adversary.
func (a *Replayer) Name() string { return fmt.Sprintf("replayer(p=%d)", a.period) }

// Choose implements Adversary.
func (a *Replayer) Choose(w *World, enabled []trace.Action) trace.Action {
	a.count++
	if a.count%a.period == 0 {
		sup := w.Link.Half(channel.SToR).Deliverable().Support()
		if len(sup) > 0 {
			return trace.Deliver(channel.SToR, sup[a.rng.Intn(len(sup))])
		}
	}
	return a.inner.Choose(w, enabled)
}

// NewWithholder returns an adversary that stalls all deliveries for its
// first holdSteps steps — a Partition of both directions, so it only ticks
// the processes (Property 1b(i) iterated) — after which it behaves like
// RoundRobin. It exhibits the arbitrary-delay power of the channel.
func NewWithholder(holdSteps int) *Partition {
	return NewPartition(fmt.Sprintf("withholder(%d)", holdSteps), NewRoundRobin(),
		func(step int) bool { return step < holdSteps }, channel.SToR, channel.RToS)
}

// BudgetDropper drops the first budget deliverable copies it sees (on del
// or lossy-FIFO halves), then behaves like RoundRobin. With a finite
// budget the resulting schedule is still fair-in-the-limit, so liveness
// must survive it.
type BudgetDropper struct {
	inner   *RoundRobin
	rng     *rand.Rand
	initial int
	budget  int
}

var _ Adversary = (*BudgetDropper)(nil)

// NewBudgetDropper returns an adversary dropping up to budget copies.
func NewBudgetDropper(seed int64, budget int) *BudgetDropper {
	return &BudgetDropper{
		inner:   NewRoundRobin(),
		rng:     rand.New(rand.NewSource(seed)),
		initial: budget,
		budget:  budget,
	}
}

// Name implements Adversary.
func (a *BudgetDropper) Name() string { return fmt.Sprintf("budget-dropper(%d)", a.initial) }

// Choose implements Adversary.
func (a *BudgetDropper) Choose(w *World, enabled []trace.Action) trace.Action {
	if a.budget > 0 {
		var drops []trace.Action
		for _, act := range enabled {
			if act.Kind == trace.ActDrop {
				drops = append(drops, act)
			}
		}
		if len(drops) > 0 {
			a.budget--
			return drops[a.rng.Intn(len(drops))]
		}
	}
	return a.inner.Choose(w, enabled)
}
