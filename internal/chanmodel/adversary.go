package chanmodel

import (
	"fmt"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
)

// Adversary realizes a channel model inside the simulator: a
// sim.Adversary whose S→R deliveries and drops follow the model's
// decision schedule exactly, while ticks and the R→S direction run the
// fair rotation, sim.Rotation (the model impairs the data direction, as
// the wire impairment layer does).
//
// The schedule is consumed one decision per offered symbol:
//
//   - duplication families (Kind() == channel.KindDup) draw one decision
//     per distinct message VALUE the first time it becomes deliverable —
//     dup channels collapse retransmissions of the same value, exactly as
//     the wire collapses nothing but the sim's dup half keeps counts at
//     one. Pass delivers the value once, Dup twice; after that the value
//     is left alone (a fair schedule: everything sent is delivered at
//     least once).
//   - deletion families (Kind() == channel.KindDel) draw one decision per
//     COPY: every retransmission is a fresh offered symbol with an
//     independent fate, which is what makes retransmitting protocols live
//     under loss.
//
// The realized decision stream (Realized) is byte-identical to
// ScheduleBytes(model, seed, n) by construction; the cross-realization
// test in internal/wire pins the same property for the wire side.
type Adversary struct {
	model Model
	seed  int64
	sched *Schedule

	rot     sim.Rotation
	rotS2R  int
	dupLeft map[msg.Msg]int // dup family: remaining deliveries per value
	pending map[msg.Msg][]Decision
	done    map[msg.Msg]int // loss family: copies delivered or dropped by us
	offered map[msg.Msg]int // loss family: copies already given a decision
	record  []byte
	recMax  int
}

var _ sim.Adversary = (*Adversary)(nil)

// NewAdversary returns the scripted-delivery realization of model for
// the given seed. The world's S→R half must be of the model's Kind.
func NewAdversary(model Model, seed int64) *Adversary {
	return &Adversary{
		model:   model,
		seed:    seed,
		sched:   model.Schedule(seed),
		dupLeft: make(map[msg.Msg]int),
		pending: make(map[msg.Msg][]Decision),
		done:    make(map[msg.Msg]int),
		offered: make(map[msg.Msg]int),
	}
}

// Reset clears the per-world tracking state (seen values, per-copy
// bookkeeping, rotation cursors) while keeping the schedule stream and
// the realized-decision record, so one adversary can drive a sequence
// of fresh worlds off a single continuous schedule — the sim analogue
// of one wire impairment instance serving session after session.
func (a *Adversary) Reset() {
	a.rot, a.rotS2R = sim.Rotation{}, 0
	a.dupLeft = make(map[msg.Msg]int)
	a.pending = make(map[msg.Msg][]Decision)
	a.done = make(map[msg.Msg]int)
	a.offered = make(map[msg.Msg]int)
}

// RecordRealized keeps the first n realized decisions for Realized.
func (a *Adversary) RecordRealized(n int) { a.recMax = n }

// Realized returns the recorded realized decision stream.
func (a *Adversary) Realized() []byte { return a.record }

// Name implements sim.Adversary.
func (a *Adversary) Name() string {
	return fmt.Sprintf("chanmodel(%s,seed=%d)", a.model.Spec(), a.seed)
}

// draw consumes the next schedule decision, recording it if asked.
func (a *Adversary) draw() Decision {
	d := a.sched.Next()
	if len(a.record) < a.recMax {
		a.record = append(a.record, byte(d))
	}
	return d
}

// Choose implements sim.Adversary: the fair rotation with the S→R phase
// scripted by the model.
func (a *Adversary) Choose(w *sim.World, _ []trace.Action) trace.Action {
	return a.rot.Next(w, func(w *sim.World, dir channel.Dir) (trace.Action, bool) {
		if dir == channel.SToR {
			return a.chooseS2R(w)
		}
		return a.rot.Fair(w, dir)
	})
}

// chooseS2R picks the next scripted action on the data direction, or
// reports false when the schedule has nothing executable now.
func (a *Adversary) chooseS2R(w *sim.World) (trace.Action, bool) {
	if a.model.Kind() == channel.KindDup {
		return a.chooseDup(w)
	}
	return a.chooseLoss(w)
}

// chooseDup handles duplication families: one decision per new value,
// then deliver values that still have deliveries left, rotating.
func (a *Adversary) chooseDup(w *sim.World) (trace.Action, bool) {
	sup := w.Link.Half(channel.SToR).Deliverable().Support()
	for _, m := range sup {
		if _, seen := a.dupLeft[m]; !seen {
			if a.draw() == Dup {
				a.dupLeft[m] = 2
			} else {
				a.dupLeft[m] = 1
			}
		}
	}
	live := sup[:0]
	for _, m := range sup {
		if a.dupLeft[m] > 0 {
			live = append(live, m)
		}
	}
	if len(live) == 0 {
		return trace.Action{}, false
	}
	m := live[a.rotS2R%len(live)]
	a.rotS2R++
	a.dupLeft[m]--
	return trace.Deliver(channel.SToR, m), true
}

// chooseLoss handles deletion families: one decision per copy. The
// number of copies of value m ever sent is Deliverable()[m] plus the
// copies this adversary already delivered or dropped (it is the only
// consumer); newly appeared copies are decided in sorted-value order.
func (a *Adversary) chooseLoss(w *sim.World) (trace.Action, bool) {
	half := w.Link.Half(channel.SToR)
	deliverable := half.Deliverable()
	sup := deliverable.Support()
	for _, m := range sup {
		sent := deliverable.Get(m) + a.done[m]
		for a.offered[m] < sent {
			a.offered[m]++
			a.pending[m] = append(a.pending[m], a.draw())
		}
	}
	live := sup[:0]
	for _, m := range sup {
		if len(a.pending[m]) > 0 {
			live = append(live, m)
		}
	}
	if len(live) == 0 {
		return trace.Action{}, false
	}
	m := live[a.rotS2R%len(live)]
	a.rotS2R++
	d := a.pending[m][0]
	a.pending[m] = a.pending[m][1:]
	a.done[m]++
	if d == Drop && half.CanDrop(m) {
		return trace.Drop(channel.SToR, m), true
	}
	return trace.Deliver(channel.SToR, m), true
}
