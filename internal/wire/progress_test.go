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

// discard is the transport of a test that looks at no frame: it takes
// them all and delivers none.
type discard struct{}

func (discard) Name() string           { return "discard" }
func (discard) Send(End, []byte) error { return nil }
func (discard) Recv(End) <-chan []byte { return nil }
func (discard) Close() error           { return nil }

// manualMux builds a mux with a manual engine over tr — no worker
// goroutine, no router — and returns it with its one worker: the test
// turns the worker, moves mux.loop.clock, and is the only producer of
// every inbox. Nothing reads tr: what the sessions send goes no further.
func manualMux(t testing.TB, tr Transport) (*Mux, *loopWorker) {
	t.Helper()
	mux := newMux(tr, MuxConfig{}, true)
	t.Cleanup(func() { mux.Close() })
	return mux, mux.loop.workers[0]
}

// detachedSession starts one session of proto, at an hour's tick, on a
// manual mux: it attaches at the worker's first turn, and from then on
// the test services it by hand (deliverAcks).
func detachedSession(t *testing.T, proto string, p registry.Params, x seq.Seq) (*loopWorker, *Session) {
	t.Helper()
	mux, w := manualMux(t, discard{})
	s, r, err := registry.Pair(proto, p, x)
	if err != nil {
		t.Fatalf("Pair(%s): %v", proto, err)
	}
	sess, err := mux.NewSession(SessionConfig{ID: 1, Sender: s, Receiver: r, Input: x, Tick: time.Hour})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	mux.loop.start(context.Background(), sess, 0, func(Report) {})
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
		if w.turn(); s.framesTx != 1 {
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
		w.turn()
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
	// nothing, on a clock the test owns, the frames of a 150-tick life are
	// exactly the attach step plus the capped backoff law, drawn from the
	// session's own jitter stream: a twin backoff says which ticks were due.
	t.Run("retransmission is timer-governed", func(t *testing.T) {
		const tick, life = time.Millisecond, 150 * time.Millisecond
		mux, w := manualMux(t, discard{})
		x := rampTape(4)
		s, r, err := registry.Pair("alpha", registry.Params{M: 8}, x)
		if err != nil {
			t.Fatalf("Pair: %v", err)
		}
		sess, err := mux.NewSession(SessionConfig{ID: 1, Sender: s, Receiver: r, Input: x, Tick: tick, Deadline: life, Seed: 9})
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		var rep *Report
		mux.loop.start(context.Background(), sess, 0, func(r Report) { rep = &r })
		twin := newBackoff(tick, 9, 0) // arm's draw, then the attach step's
		twin.arm(0)
		want, at := 1, sess.tickNext
		for w.turn(); rep == nil; w.turn() {
			mux.loop.clock = w.timers[0].at
			if mux.loop.clock == at && at < int64(life) { // a tick edge: the sender's, if the twin is due
				if twin.due(at) {
					want++
					twin.grow()
					twin.arm(at)
				}
				at += int64(tick)
			}
		}
		if rep.Complete || rep.SafetyViolation != nil || rep.Elapsed != life {
			t.Fatalf("complete=%v violation=%v after %v over a link that delivers nothing", rep.Complete, rep.SafetyViolation, rep.Elapsed)
		}
		if rep.FramesTx != want || want < 8 {
			t.Errorf("FramesTx = %d in %v, want the capped backoff law's %d", rep.FramesTx, rep.Elapsed, want)
		}
		if rep.Retransmits != rep.FramesTx-1 {
			t.Errorf("Retransmits = %d of %d frames, want all but the first", rep.Retransmits, rep.FramesTx)
		}
	})
}
