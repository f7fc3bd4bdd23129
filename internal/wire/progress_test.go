package wire

import (
	"context"
	"testing"
	"time"

	"seqtx/internal/msg"
	"seqtx/internal/protocol/alphaproto"
	"seqtx/internal/protocol/selrepeat"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
)

// rampTape is ⟨0, 1, …, n−1⟩: repetition-free, so every protocol in the
// zoo accepts it at M = n.
func rampTape(n int) seq.Seq {
	x := make(seq.Seq, n)
	for i := range x {
		x[i] = seq.Item(i)
	}
	return x
}

// runOne runs a single session of proto over tr and returns its report.
func runOne(t *testing.T, tr Transport, proto string, p registry.Params, x seq.Seq, tick, deadline time.Duration) Report {
	t.Helper()
	s, r, err := registry.Pair(proto, p, x)
	if err != nil {
		t.Fatalf("Pair(%s): %v", proto, err)
	}
	reports, err := Serve(context.Background(), ServeConfig{
		Transport: tr,
		Sessions: []SessionConfig{{
			ID: 1, Sender: s, Receiver: r, Input: x, Tick: tick, Deadline: deadline,
		}},
	})
	if err != nil {
		t.Fatalf("Serve(%s): %v", proto, err)
	}
	return reports[0]
}

// detachedSession registers one session of proto on a mux over a link
// that delivers nothing S→R and hands it to a worker no goroutine runs,
// so the test drives service itself and is the sender inbox's only
// producer.
func detachedSession(t *testing.T, proto string, p registry.Params, x seq.Seq) (*loopWorker, *Session) {
	t.Helper()
	mux := NewMux(blackHole{NewInproc(0, nil)}, nil)
	t.Cleanup(func() { mux.Close() })
	s, r, err := registry.Pair(proto, p, x)
	if err != nil {
		t.Fatalf("Pair(%s): %v", proto, err)
	}
	sess, err := mux.NewSession(SessionConfig{ID: 1, Sender: s, Receiver: r, Input: x, Tick: time.Hour})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	w := newLoopWorker(mux.loop)
	sess.worker, sess.startAt = w, mux.loop.now()
	sess.onDone = func(Report) {}
	sess.bo = newBackoff(sess.cfg.Tick, sess.cfg.Seed, 0)
	sess.tickNext, sess.deadlineAt = noDeadline, noDeadline
	return w, sess
}

// deliverAcks publishes acks to the sender inbox as one burst and
// services the session once; it returns the frames that one service
// call put on the wire.
func deliverAcks(w *loopWorker, s *Session, acks ...msg.Msg) int {
	for _, a := range acks {
		s.senderInbox.stage(a)
	}
	s.senderInbox.publish()
	before := s.framesTx
	w.service(s)
	return s.framesTx - before
}

// TestProgressClockedStep pins, by counts rather than by the wall clock,
// that fresh sends are clocked by acknowledged progress and the tick is
// only the retransmission timer.
func TestProgressClockedStep(t *testing.T) {
	// (i) + (ii): with an hour-long tick the timer never fires, so a
	// session completes only if no fresh send waits for it; and on a
	// clean link the frames sent are exactly the model's shortest run —
	// ack clocking adds none, and nothing is retransmitted.
	for _, tc := range []struct {
		proto  string
		params registry.Params
		items  int
		frames int
	}{
		{"alpha", registry.Params{M: 8}, 8, 8},
		{"abp", registry.Params{M: 8}, 8, 8},
		{"modseq", registry.Params{M: 8, Window: 4}, 8, 8},
		{"afwz", registry.Params{M: 8}, 8, 9}, // the tape and "end"
		{"stenning", registry.Params{M: 8}, 8, 8},
		{"selrepeat", registry.Params{M: 64, Window: 16}, 64, 64},
		{"gobackn", registry.Params{M: 64, Window: 16}, 64, 64},
	} {
		t.Run("timerless/"+tc.proto, func(t *testing.T) {
			t.Parallel()
			x := rampTape(tc.items)
			rep := runOne(t, NewInproc(0, nil), tc.proto, tc.params, x, time.Hour, 10*time.Second)
			if !rep.Complete || rep.SafetyViolation != nil || !rep.Output.Equal(x) {
				t.Fatalf("complete=%v violation=%v output=%s after %v: a fresh send waited for the timer",
					rep.Complete, rep.SafetyViolation, rep.Output, rep.Elapsed)
			}
			if rep.Retransmits != 0 {
				t.Errorf("%d retransmissions on a clean link", rep.Retransmits)
			}
			if rep.FramesTx != tc.frames {
				t.Errorf("FramesTx = %d, want the minimal run's %d", rep.FramesTx, tc.frames)
			}
		})
	}
	// stab and flood make progress by repetition (c+1 identical copies
	// teach R one item; flood's sender never hears from R), so their
	// sends rightly stay on the timer: they complete at the default tick.
	for _, proto := range []string{"stab", "flood"} {
		t.Run("timer-driven/"+proto, func(t *testing.T) {
			t.Parallel()
			x := rampTape(8)
			rep := runOne(t, NewInproc(0, nil), proto, registry.Params{M: 8}, x, DefaultTick, 10*time.Second)
			if !rep.Complete || rep.SafetyViolation != nil {
				t.Fatalf("complete=%v violation=%v after %v", rep.Complete, rep.SafetyViolation, rep.Elapsed)
			}
		})
	}

	// (iii): the step is gated on a state change and taken once per
	// progress-making delivery, inside the service call that drained it.
	t.Run("gated on progress", func(t *testing.T) {
		w, s := detachedSession(t, "alpha", registry.Params{M: 8}, rampTape(4))
		if w.service(s); s.framesTx != 1 {
			t.Fatalf("attach sent %d frames, want the first spontaneous step's 1", s.framesTx)
		}
		a0, a1 := alphaproto.AckMsg(0), alphaproto.AckMsg(1)
		if n := deliverAcks(w, s, a1); n != 0 {
			t.Errorf("an acknowledgement of an item not yet sent provoked %d sends", n)
		}
		if n := deliverAcks(w, s, a0); n != 1 {
			t.Errorf("a progress acknowledgement provoked %d sends, want 1", n)
		}
		if n := deliverAcks(w, s, a0, a0); n != 0 {
			t.Errorf("a stale and a duplicated acknowledgement provoked %d sends", n)
		}
		if n := deliverAcks(w, s, a0, a1, a1); n != 1 {
			t.Errorf("stale + progress + duplicate in one burst provoked %d sends, want 1", n)
		}
		if s.retransmits != 0 {
			t.Errorf("%d retransmissions with no timer tick", s.retransmits)
		}
	})
	t.Run("one step per acknowledgement, not per burst", func(t *testing.T) {
		const window = 4
		w, s := detachedSession(t, "selrepeat", registry.Params{M: 16, Window: window}, rampTape(16))
		w.service(s)
		for s.framesTx < window { // what the timer would add, a tick at a time
			if !s.spontaneous(w.eng.now()) {
				t.Fatal("transport closed")
			}
		}
		acks := []msg.Msg{selrepeat.AckMsg(2*window, 0), selrepeat.AckMsg(2*window, 1), selrepeat.AckMsg(2*window, 2)}
		if n := deliverAcks(w, s, acks...); n != len(acks) {
			t.Errorf("%d new acknowledgements in one burst provoked %d sends: the window would not be conserved", len(acks), n)
		}
		if n := deliverAcks(w, s, acks...); n != 0 {
			t.Errorf("the same acknowledgements again provoked %d sends", n)
		}
	})

	// (iv): retransmission stayed on the timer. Over a link that delivers
	// nothing, the frames of a fixed window are the attach step plus the
	// capped backoff schedule — no faster than its jitter floor allows.
	t.Run("retransmission is timer-governed", func(t *testing.T) {
		t.Parallel()
		const tick = time.Millisecond
		rep := runOne(t, blackHole{NewInproc(0, nil)}, "alpha", registry.Params{M: 8}, rampTape(4), tick, 150*time.Millisecond)
		if rep.Complete || rep.SafetyViolation != nil {
			t.Fatalf("complete=%v violation=%v over a link that delivers nothing", rep.Complete, rep.SafetyViolation)
		}
		most, ivl, at := 1, tick, time.Duration(0)
		for {
			at += time.Duration(float64(ivl) * (1 - backoffJitter))
			if at > rep.Elapsed {
				break
			}
			most++
			ivl = min(2*ivl, BackoffCapFactor*tick)
		}
		if rep.FramesTx > most || rep.FramesTx < 4 {
			t.Errorf("FramesTx = %d in %v, want 4..%d under the capped backoff law", rep.FramesTx, rep.Elapsed, most)
		}
		if rep.Retransmits != rep.FramesTx-1 {
			t.Errorf("Retransmits = %d of %d frames, want all but the first", rep.Retransmits, rep.FramesTx)
		}
	})
}
