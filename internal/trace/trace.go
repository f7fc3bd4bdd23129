// Package trace records runs of an STP system: the sequence of scheduler
// actions together with the process reactions they triggered. A trace is
// the concrete counterpart of the paper's runs r = r(0), r(1), ...; the
// receiver view extracted from a trace is R's local state under the
// complete history interpretation (§2.3), which is what knowledge and
// indistinguishability are defined over.
package trace

import (
	"fmt"
	"strings"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/seq"
)

// ActKind is the kind of a scheduler action.
type ActKind int

// Scheduler action kinds.
const (
	// ActTickS grants the sender a spontaneous step.
	ActTickS ActKind = iota + 1
	// ActTickR grants the receiver a spontaneous step.
	ActTickR
	// ActDeliver delivers one copy of a message in some direction.
	ActDeliver
	// ActDeliverDup delivers the head of a FIFO half without consuming it
	// (a duplication).
	ActDeliverDup
	// ActDrop silently deletes one in-flight copy (del and lossy-FIFO
	// channels only).
	ActDrop
	// ActCrashS resets the sender to its initial state (a crash-restart
	// fault: local state is lost, the channel and the tapes survive). This
	// is outside the paper's model — no adversary enumerates it from the
	// enabled set; only fault plans (internal/faults) inject it.
	ActCrashS
	// ActCrashR resets the receiver to its initial state. Y survives (R's
	// past writes are irrevocable), which is exactly what makes a receiver
	// crash dangerous: R forgets how much it already wrote.
	ActCrashR
	// ActScrambleS restarts the sender into seeded-arbitrary local state
	// (the self-stabilization adversary: a transient fault corrupts memory
	// rather than clearing it). The action's Seed makes the corruption
	// replayable.
	ActScrambleS
	// ActScrambleR restarts the receiver into seeded-arbitrary local
	// state. As with ActCrashR, Y survives.
	ActScrambleR
)

// OnChannel reports whether the kind is a channel action — a delivery, a
// duplicating delivery or a drop — and so carries a direction and message.
func (k ActKind) OnChannel() bool { return k >= ActDeliver && k <= ActDrop }

// String names the kind.
func (k ActKind) String() string {
	switch k {
	case ActTickS:
		return "tickS"
	case ActTickR:
		return "tickR"
	case ActDeliver:
		return "deliver"
	case ActDeliverDup:
		return "deliver+dup"
	case ActDrop:
		return "drop"
	case ActCrashS:
		return "crashS"
	case ActCrashR:
		return "crashR"
	case ActScrambleS:
		return "scrambleS"
	case ActScrambleR:
		return "scrambleR"
	default:
		return fmt.Sprintf("ActKind(%d)", int(k))
	}
}

// Action is one scheduler step: what the environment chose to happen.
type Action struct {
	Kind ActKind
	Dir  channel.Dir // for deliver/drop actions
	Msg  msg.Msg     // for deliver/drop actions
	Seed int64       // for scramble actions: the corruption's RNG seed
}

// TickS returns the sender-tick action.
func TickS() Action { return Action{Kind: ActTickS} }

// TickR returns the receiver-tick action.
func TickR() Action { return Action{Kind: ActTickR} }

// Deliver returns a delivery action.
func Deliver(d channel.Dir, m msg.Msg) Action {
	return Action{Kind: ActDeliver, Dir: d, Msg: m}
}

// Drop returns a drop action.
func Drop(d channel.Dir, m msg.Msg) Action {
	return Action{Kind: ActDrop, Dir: d, Msg: m}
}

// CrashS returns the sender crash-restart action.
func CrashS() Action { return Action{Kind: ActCrashS} }

// CrashR returns the receiver crash-restart action.
func CrashR() Action { return Action{Kind: ActCrashR} }

// ScrambleS returns a sender scramble-restart action with the given
// corruption seed.
func ScrambleS(seed int64) Action { return Action{Kind: ActScrambleS, Seed: seed} }

// ScrambleR returns a receiver scramble-restart action.
func ScrambleR(seed int64) Action { return Action{Kind: ActScrambleR, Seed: seed} }

// String renders the action compactly.
func (a Action) String() string {
	switch a.Kind {
	case ActTickS, ActTickR, ActCrashS, ActCrashR:
		return a.Kind.String()
	case ActScrambleS, ActScrambleR:
		return fmt.Sprintf("%s[seed=%d]", a.Kind, a.Seed)
	default:
		return fmt.Sprintf("%s[%s,%s]", a.Kind, a.Dir, a.Msg)
	}
}

// Key returns a canonical encoding for deduplication.
func (a Action) Key() string { return a.String() }

// Entry is one recorded step: the action plus the stepped process's
// reaction (messages sent, items written).
type Entry struct {
	Time   int       // the step index (the paper's t: transition from (r,t))
	Act    Action    // the environment's choice
	Sends  []msg.Msg // messages emitted by the stepped process
	Writes seq.Seq   // items R appended to Y in this step
}

// String renders the entry.
func (e Entry) String() string {
	s := fmt.Sprintf("t=%-4d %s", e.Time, e.Act)
	if len(e.Sends) > 0 {
		parts := make([]string, len(e.Sends))
		for i, m := range e.Sends {
			parts[i] = string(m)
		}
		s += " sends{" + strings.Join(parts, ",") + "}"
	}
	if len(e.Writes) > 0 {
		s += " writes " + e.Writes.String()
	}
	return s
}

// Trace is a full recorded run.
type Trace struct {
	Name    string  // protocol name, for rendering
	Input   seq.Seq // X^r
	Entries []Entry
}

// Append records one entry.
func (t *Trace) Append(e Entry) { t.Entries = append(t.Entries, e) }

// Len returns the number of recorded steps.
func (t *Trace) Len() int { return len(t.Entries) }

// Output reconstructs Y after the first n steps (n = -1 for all).
func (t *Trace) Output(n int) seq.Seq {
	if n < 0 || n > len(t.Entries) {
		n = len(t.Entries)
	}
	var y seq.Seq
	for _, e := range t.Entries[:n] {
		y = append(y, e.Writes...)
	}
	return y
}

// String renders the whole trace, one entry per line.
func (t *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run of %s on X = %s (%d steps)\n", t.Name, t.Input, len(t.Entries))
	for _, e := range t.Entries {
		b.WriteString("  " + e.String() + "\n")
	}
	return b.String()
}

// ViewEvent is one event as seen by a single process: its own ticks and
// the deliveries it received. Drops and the peer's activity are invisible.
type ViewEvent struct {
	IsTick bool
	Msg    msg.Msg // valid when !IsTick
}

// Key renders the event canonically.
func (v ViewEvent) Key() string {
	if v.IsTick {
		return "·"
	}
	return "<" + string(v.Msg)
}

// View is a process's complete-history local state: the chronological
// list of events it has experienced. Because protocols are deterministic,
// a view determines everything about the process — its state, its sends,
// and (for R) its writes — so two points are ~_p-indistinguishable exactly
// when the p-views are equal.
type View []ViewEvent

// CloneView returns an independent copy of the view (named to avoid
// clashing with the slice-clone idiom of callers that embed views).
func (v View) CloneView() View {
	if v == nil {
		return nil
	}
	cp := make(View, len(v))
	copy(cp, v)
	return cp
}

// Key returns the canonical encoding of the view.
func (v View) Key() string {
	parts := make([]string, len(v))
	for i, e := range v {
		parts[i] = e.Key()
	}
	return strings.Join(parts, "")
}

// ReceiverView extracts R's view from the first n steps of the trace
// (n = -1 for all steps).
func (t *Trace) ReceiverView(n int) View {
	if n < 0 || n > len(t.Entries) {
		n = len(t.Entries)
	}
	var v View
	for _, e := range t.Entries[:n] {
		switch {
		case e.Act.Kind == ActTickR:
			v = append(v, ViewEvent{IsTick: true})
		case (e.Act.Kind == ActDeliver || e.Act.Kind == ActDeliverDup) && e.Act.Dir == channel.SToR:
			v = append(v, ViewEvent{Msg: e.Act.Msg})
		}
	}
	return v
}

// SenderView extracts S's view from the first n steps of the trace.
func (t *Trace) SenderView(n int) View {
	if n < 0 || n > len(t.Entries) {
		n = len(t.Entries)
	}
	var v View
	for _, e := range t.Entries[:n] {
		switch {
		case e.Act.Kind == ActTickS:
			v = append(v, ViewEvent{IsTick: true})
		case (e.Act.Kind == ActDeliver || e.Act.Kind == ActDeliverDup) && e.Act.Dir == channel.RToS:
			v = append(v, ViewEvent{Msg: e.Act.Msg})
		}
	}
	return v
}
