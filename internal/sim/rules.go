package sim

import (
	"fmt"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/trace"
)

// The rules of the runs model (§2.2), each stated once for its two
// executors: World.Apply steps a run in place, System.Step tabulates the
// searches (DESIGN §6 says why both stay).

// halfMoves is the move walk over h: for each deliverable message, in
// ascending order, the environment may deliver it, deliver it and keep
// it queued where h is a FIFO half that duplicates, and drop it where
// the model allows deletion. yield receives each move in that order.
func halfMoves(h channel.Half, yield func(kind trace.ActKind, m msg.Msg)) {
	f, _ := h.(*channel.FIFO)
	dup := f != nil && f.AllowsDup()
	for i := 0; ; i++ {
		m, ok := h.Support(i)
		if !ok {
			return
		}
		yield(trace.ActDeliver, m)
		if dup {
			yield(trace.ActDeliverDup, m)
		}
		if h.CanDrop(m) {
			yield(trace.ActDrop, m)
		}
	}
}

// halfOp performs on h, the half in direction dir, the channel operation
// of a delivery, a deliver-and-keep (a FIFO duplication, which leaves h
// as it is) or a drop of m.
func halfOp(h channel.Half, kind trace.ActKind, dir channel.Dir, m msg.Msg) error {
	var err error
	switch kind {
	case trace.ActDeliver:
		err = h.Deliver(m)
	case trace.ActDeliverDup:
		f, ok := h.(*channel.FIFO)
		if !ok {
			return fmt.Errorf("sim: deliver+dup on non-FIFO half %s", dir)
		}
		err = f.DeliverKeep(m)
	case trace.ActDrop:
		err = h.Drop(m)
	}
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// sendErr is the send check's error: the process whose sends travel in
// dir sent a message outside the alphabet Link.Admits enforces.
func sendErr(dir channel.Dir, err error) error {
	who := "sender"
	if dir == channel.RToS {
		who = "receiver"
	}
	return fmt.Errorf("sim: %s step: %w", who, err)
}

// restart builds the process a crash or scramble restart puts in place
// of S or R (exactly one of s and r is set): a fresh one from spec, and
// for a scramble then corrupted with act's seed, the self-stabilization
// adversary of [DDPT, arXiv 1104.3947] (without a Scrambler hook, a
// crash). Restarts are outside the paper's model: never enabled.
func restart(spec protocol.Spec, input seq.Seq, act trace.Action) (s protocol.Sender, r protocol.Receiver, err error) {
	if spec.NewSender == nil || spec.NewReceiver == nil {
		return nil, nil, fmt.Errorf("sim: %s requires a spec-built world", act.Kind)
	}
	var p any
	if act.Kind == trace.ActCrashS || act.Kind == trace.ActScrambleS {
		s, err = spec.NewSender(input)
		p = s
	} else {
		r, err = spec.NewReceiver()
		p = r
	}
	if err != nil {
		return nil, nil, fmt.Errorf("sim: %s: %w", act.Kind, err)
	}
	if act.Kind == trace.ActScrambleS || act.Kind == trace.ActScrambleR {
		protocol.ScrambleState(p, act.Seed)
	}
	return s, r, nil
}

// Replayable is the replay-legality rule: whether a recorded action may
// be played in w now — a channel action iff the move walk of its half
// offers it, a tick always, and a crash or scramble restart always (it is
// injected, never enabled).
func (w *World) Replayable(act trace.Action) bool {
	if !act.Kind.OnChannel() {
		return true
	}
	enabled := false
	halfMoves(w.Link.Half(act.Dir), func(kind trace.ActKind, m msg.Msg) {
		enabled = enabled || kind == act.Kind && m == act.Msg
	})
	return enabled
}
