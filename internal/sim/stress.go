package sim

import (
	"fmt"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/trace"
)

// Starver maximally delays the oldest undelivered message: it runs the
// fair Rotation, but whenever it delivers it picks the *youngest*
// deliverable (most recently seen on the channel), so the oldest message
// is starved for as long as any alternative exists. On dup channels, where
// the deliverable set only grows, the oldest message is never delivered at
// all. It is therefore unfair by construction — wrap it in FinDelay for a
// fair schedule that still realizes the worst legal delay on every
// message. Deterministic.
type Starver struct {
	rot  Rotation
	now  int
	seen map[string]int // dir|msg -> step first observed deliverable
}

var _ Adversary = (*Starver)(nil)

// NewStarver returns the oldest-message-starving adversary.
func NewStarver() *Starver { return &Starver{seen: make(map[string]int)} }

// Name implements Adversary.
func (a *Starver) Name() string { return "starver" }

func seenKey(d channel.Dir, m msg.Msg) string { return d.String() + "|" + string(m) }

// Choose implements Adversary.
func (a *Starver) Choose(w *World, _ []trace.Action) trace.Action {
	a.now++
	// Refresh first-seen times; prune vanished types so the map stays
	// bounded by the current deliverable support.
	live := make(map[string]struct{})
	for _, dir := range []channel.Dir{channel.SToR, channel.RToS} {
		half := w.Link.Half(dir)
		for i := 0; ; i++ {
			m, ok := half.Support(i)
			if !ok {
				break
			}
			k := seenKey(dir, m)
			live[k] = struct{}{}
			if _, ok := a.seen[k]; !ok {
				a.seen[k] = a.now
			}
		}
	}
	for k := range a.seen {
		if _, ok := live[k]; !ok {
			delete(a.seen, k)
		}
	}
	return a.rot.Next(w, a.youngest)
}

// youngest delivers the deliverable message observed most recently,
// excluding the single oldest one while any alternative exists (that is
// the starvation); ties break lexicographically for determinism.
func (a *Starver) youngest(w *World, d channel.Dir) (trace.Action, bool) {
	half := w.Link.Half(d)
	best, ok := half.Support(0)
	if !ok {
		return trace.Action{}, false
	}
	bestAt := a.seen[seenKey(d, best)]
	oldest, oldestAt := best, bestAt
	n := 1
	for m, ok := half.Support(n); ok; m, ok = half.Support(n) {
		n++
		at := a.seen[seenKey(d, m)]
		if at < oldestAt {
			oldest, oldestAt = m, at
		}
		if at > bestAt {
			best, bestAt = m, at
		}
	}
	if n > 1 && best == oldest {
		// All equally old; take turns like round-robin to avoid
		// livelocking on one message.
		return a.rot.Fair(w, d)
	}
	return trace.Deliver(d, best), true
}

// NewEclipse returns an adversary isolating one direction of the link for
// a window: a Partition that shuts dir for its first holdSteps steps,
// while the opposite direction and both processes keep the rotation's
// order (tickS → S→R → tickR → R→S with the eclipsed phase passed over).
// After the window it behaves like RoundRobin (the eclipse heals). With an
// infinite window it models a one-way partition; with a finite one it is
// still a legal arbitrary-delay schedule (Property 1b), unfair during the
// window but fair in the limit.
func NewEclipse(dir channel.Dir, holdSteps int) *Partition {
	return NewPartition(fmt.Sprintf("eclipse(%s,%d)", dir, holdSteps), NewRoundRobin(),
		func(step int) bool { return step < holdSteps }, dir)
}

// NewPhasedPartition returns the scheduler that alternates healthy and
// fully partitioned phases forever (both lengths clamped to at least 1):
// healthy steps run the fair RoundRobin schedule, partitioned steps are a
// Partition of both directions, so they only tick the processes. Every
// message is eventually delivered in some healthy phase, so the schedule
// is fair in the limit — liveness must survive it, at a latency cost
// proportional to the duty cycle.
func NewPhasedPartition(healthy, partitioned int) *Partition {
	healthy, partitioned = max(healthy, 1), max(partitioned, 1)
	return NewPartition(fmt.Sprintf("phased-partition(%d/%d)", healthy, partitioned), NewRoundRobin(),
		func(step int) bool { return step%(healthy+partitioned) >= healthy }, channel.SToR, channel.RToS)
}
