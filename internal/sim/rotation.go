package sim

import (
	"seqtx/internal/channel"
	"seqtx/internal/trace"
)

// Rotation is the repo's one fair schedule: tickS → one S→R delivery →
// tickR → one R→S delivery, a delivery phase with nothing to deliver
// passed over. Every liveness claim is relative to it (the paper asks
// liveness only of fair runs, §2 Property 2), and every deterministic
// adversary is this rotation with some delivery phase re-decided or shut.
// The zero value starts at tickS.
type Rotation struct {
	phase int
	turn  [2]int // per direction: deliveries Fair has made
}

// Next returns the rotation's next action. The tick phases always answer;
// at each delivery phase it reaches it asks pick for that direction's
// action, and false passes the phase over.
func (r *Rotation) Next(w *World, pick func(*World, channel.Dir) (trace.Action, bool)) trace.Action {
	for {
		phase := r.phase
		r.phase = (phase + 1) % 4
		switch phase {
		case 0:
			return trace.TickS()
		case 1:
			if act, ok := pick(w, channel.SToR); ok {
				return act
			}
		case 2:
			return trace.TickR()
		case 3:
			if act, ok := pick(w, channel.RToS); ok {
				return act
			}
		}
	}
}

// Fair is the fair pick: it delivers dir's deliverable messages in turn,
// in ascending order (on dup channels old messages stay deliverable
// forever, so always picking the smallest would starve new ones).
func (r *Rotation) Fair(w *World, dir channel.Dir) (trace.Action, bool) {
	half := w.Link.Half(dir)
	n := 0
	for _, ok := half.Support(n); ok; _, ok = half.Support(n) {
		n++
	}
	if n == 0 {
		return trace.Action{}, false
	}
	turn := &r.turn[dir-channel.SToR]
	m, _ := half.Support(*turn % n)
	*turn++
	return trace.Deliver(dir, m), true
}

// Partition shuts directions of the link for a window of steps: on steps
// where in holds it runs its own Rotation with the shut directions'
// delivery phases passed over (messages are delayed, never lost — a legal
// arbitrary-delay schedule, Property 1b); on every other step it defers
// to inner, which does not see the window's steps at all.
type Partition struct {
	name  string
	inner Adversary
	in    func(step int) bool
	shut  [2]bool
	step  int
	rot   Rotation
}

var _ Adversary = (*Partition)(nil)

// NewPartition returns inner with the shut directions closed on the steps
// (counted from 0, over the calls this adversary receives) where in holds.
func NewPartition(name string, inner Adversary, in func(step int) bool, shut ...channel.Dir) *Partition {
	a := &Partition{name: name, inner: inner, in: in}
	for _, d := range shut {
		a.shut[d-channel.SToR] = true
	}
	return a
}

// Name implements Adversary.
func (a *Partition) Name() string { return a.name }

// Choose implements Adversary.
func (a *Partition) Choose(w *World, enabled []trace.Action) trace.Action {
	s := a.step
	a.step++
	if !a.in(s) {
		return a.inner.Choose(w, enabled)
	}
	return a.rot.Next(w, a.open)
}

// open is Fair on the directions that are not shut.
func (a *Partition) open(w *World, dir channel.Dir) (trace.Action, bool) {
	if a.shut[dir-channel.SToR] {
		return trace.Action{}, false
	}
	return a.rot.Fair(w, dir)
}
