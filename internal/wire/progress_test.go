package wire

import (
	"context"
	"testing"
	"time"

	"seqtx/internal/faults"
	"seqtx/internal/msg"
	"seqtx/internal/protocol/alphaproto"
	"seqtx/internal/protocol/gobackn"
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
	// stab makes progress by repetition (c+1 identical copies teach R one
	// item), so its sends rightly stay on the timer; flood's sender never
	// hears from R and streams its tape in its attach fill. Both complete
	// at the default tick.
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
		if w.turn(); s.framesTx != window {
			t.Fatalf("attach sent %d frames, want the window's %d", s.framesTx, window)
		}
		acks := []msg.Msg{selrepeat.AckMsg(2*window, 0), selrepeat.AckMsg(2*window, 1), selrepeat.AckMsg(2*window, 2)}
		if n := deliverAcks(w, s, acks...); n != len(acks) {
			t.Errorf("%d new acknowledgements in one burst provoked %d sends: the window would not be conserved", len(acks), n)
		}
		if n := deliverAcks(w, s, acks...); n != 0 {
			t.Errorf("the same acknowledgements again provoked %d sends", n)
		}
	})

	// Karn's rule on the manual clock: the one frame a stop-and-wait fill
	// sends opens a probe, the acknowledgement that moves the sender closes
	// it into the worker's estimate, and a retransmission in between
	// cancels it.
	t.Run("an acknowledgement d after the send is one sample of d", func(t *testing.T) {
		const d = int64(7 * time.Minute)
		w, s := detachedSession(t, "alpha", registry.Params{M: 8}, rampTape(4))
		if w.turn(); s.probeAt != 0 {
			t.Fatalf("attach at 0 left the probe at %d, want 0", s.probeAt)
		}
		w.eng.clock = d
		deliverAcks(w, s, alphaproto.AckMsg(0))
		if want := (rttEstimate{srtt: d, rttvar: d / 2, sampled: true}); w.rtt != want {
			t.Errorf("estimate %+v after one round trip of %v, want %+v", w.rtt, time.Duration(d), want)
		}
		if s.probeAt != d {
			t.Errorf("the fill after the acknowledgement opened its probe at %d, want %d", s.probeAt, d)
		}
		w.eng.clock = 3 * d
		deliverAcks(w, s, alphaproto.AckMsg(0), alphaproto.AckMsg(0)) // stale: no sample
		if w.rtt.srtt != d || w.rtt.rttvar != d/2 {
			t.Errorf("stale acknowledgements fed the estimate: %+v", w.rtt)
		}
	})
	t.Run("a timer retransmission feeds no sample", func(t *testing.T) {
		w, s := detachedSession(t, "alpha", registry.Params{M: 8}, rampTape(4))
		for w.turn(); s.retransmits == 0; w.turn() {
			w.eng.clock = w.timers[0].at
		}
		if s.probeAt != noProbe {
			t.Errorf("the retransmission left the probe open at %d", s.probeAt)
		}
		if n := deliverAcks(w, s, alphaproto.AckMsg(0)); n != 1 || w.rtt.sampled {
			t.Errorf("the acknowledgement after a retransmission: %d sends, estimate %+v; want 1 and no sample", n, w.rtt)
		}
	})
	t.Run("a restart keeps the worker's estimate", func(t *testing.T) {
		const tick = int64(time.Millisecond)
		w, s := supervisedDetached(t, ChaosConfig{Crashes: []faults.CrashPoint{{Who: faults.Sender, At: []int{5}}}, Seed: 3}, 0)
		w.rtt.sample(int64(100 * time.Microsecond))
		s.probeAt = 4 * tick // a probe of the incarnation about to die
		est := w.rtt
		fireAt(w, 5*tick)
		if len(s.sup.rep.Incarnations) != 1 {
			t.Fatalf("incarnations after the crash reading: %+v", s.sup.rep.Incarnations)
		}
		if w.rtt != est {
			t.Errorf("the restart moved the worker's estimate %+v -> %+v", est, w.rtt)
		}
		if s.probeAt == 4*tick {
			t.Error("the dead sender's probe survived its restart")
		}
	})

	// (iv): a progress event fills the window. Attach sends a whole window,
	// each new acknowledgement one frame while the tape lasts, a repeated
	// one none, and the frames in flight never exceed the window.
	t.Run("attach fills the window", func(t *testing.T) {
		const window, items = 4, 16
		for _, tc := range []struct {
			proto string
			ack   func(k int) msg.Msg // the acknowledgement that retires frame k
		}{
			{"selrepeat", func(k int) msg.Msg { return selrepeat.AckMsg(2*window, k) }},
			{"gobackn", func(k int) msg.Msg { return gobackn.AckMsg(window+1, k+1) }}, // cumulative: "k+1 next"
		} {
			t.Run(tc.proto, func(t *testing.T) {
				w, s := detachedSession(t, tc.proto, registry.Params{M: items, Window: window}, rampTape(items))
				if w.turn(); s.framesTx != window {
					t.Fatalf("attach sent %d frames, want the window's %d", s.framesTx, window)
				}
				for k := 0; k < items; k++ {
					want := 0
					if k+window < items {
						want = 1
					}
					if n := deliverAcks(w, s, tc.ack(k)); n != want {
						t.Errorf("the new acknowledgement of frame %d provoked %d sends, want %d", k, n, want)
					}
					if n := deliverAcks(w, s, tc.ack(k)); n != 0 {
						t.Errorf("the acknowledgement of frame %d again provoked %d sends", k, n)
					}
					if inFlight := s.framesTx - (k + 1); inFlight > window {
						t.Fatalf("%d frames in flight after %d acknowledgements, window %d", inFlight, k+1, window)
					}
				}
				if s.retransmits != 0 || s.framesTx != items || !s.cfg.Sender.Done() {
					t.Errorf("retransmits=%d framesTx=%d done=%v, want 0, %d, true", s.retransmits, s.framesTx, s.cfg.Sender.Done(), items)
				}
				// Every fill step moved the key: no probe, so the worker
				// keeps the tick as its timeout.
				if w.rtt.sampled || s.probeAt != noProbe {
					t.Errorf("a windowed sender fed the round-trip estimate: %+v, probe at %d", w.rtt, s.probeAt)
				}
			})
		}
	})
	// (v): every fill ends, within len(Input)+1 frames. At an hour's tick
	// nothing but the fill sends: flood streams its tape, afwz's gate
	// closes after one frame, a windowed sender stops at its window and the
	// rest at one frame. flood's payload is the item itself, so a repeated
	// item counts as a retransmission and ends its fill once sent. And the
	// fills of one service call send at most InboxSize frames, all the
	// peer's inbox takes from one burst: a longer tape or a wider window
	// stops there at attach and still completes on a clean link, with no
	// frame lost to a full inbox.
	t.Run("fill ends", func(t *testing.T) {
		x := rampTape(zooParams.M)
		for _, proto := range registry.ProtocolNames() {
			want := 1
			switch proto {
			case "flood":
				want = len(x)
			case "selrepeat", "gobackn":
				want = zooParams.Window
			}
			w, s := detachedSession(t, proto, zooParams, x)
			if w.turn(); s.framesTx != want {
				t.Errorf("%s: attach sent %d frames, want %d", proto, s.framesTx, want)
			}
		}
		w, s := detachedSession(t, "flood", zooParams, seq.Seq{0, 1, 1, 2})
		if w.turn(); s.framesTx != 3 || s.retransmits != 1 {
			t.Errorf("flood on 0.1.1.2: attach sent %d frames, %d retransmitted, want 3 and 1", s.framesTx, s.retransmits)
		}
		const long = 4 * DefaultInboxSize
		for _, tc := range []struct {
			proto string
			p     registry.Params
			tick  time.Duration // flood sends what its fill left on the timer
		}{
			{"flood", registry.Params{M: long}, DefaultTick},
			{"gobackn", registry.Params{M: long, Window: 2 * DefaultInboxSize}, time.Hour},
			{"selrepeat", registry.Params{M: long, Window: 2 * DefaultInboxSize}, time.Hour},
		} {
			x := rampTape(long)
			w, s := detachedSession(t, tc.proto, tc.p, x)
			if w.turn(); s.framesTx != DefaultInboxSize {
				t.Errorf("%s, %d items, window %d: attach sent %d frames, want the inbox's %d",
					tc.proto, long, tc.p.Window, s.framesTx, DefaultInboxSize)
			}
			rep := runOne(t, NewInproc(0, nil), tc.proto, tc.p, x, tc.tick, 10*time.Second)
			if !rep.Complete || rep.SafetyViolation != nil || rep.InboxDrops != 0 {
				t.Errorf("%s, %d items: complete=%v violation=%v inbox drops=%d, want a clean run",
					tc.proto, long, rep.Complete, rep.SafetyViolation, rep.InboxDrops)
			}
		}
	})

	// (vi): retransmission stayed on the timer, which fires at the
	// backoff's own instant. Over a link that delivers nothing, on a clock
	// the test owns, the frames of a 150-tick life are exactly the attach
	// step plus the capped backoff law grown from the worker's sampled
	// timeout and drawn from the session's own jitter stream: a twin
	// backoff says at which instants the sender steps, most of them off the
	// receiver's tick grid.
	t.Run("retransmission is timer-governed", func(t *testing.T) {
		const tick, life = time.Millisecond, 150 * time.Millisecond
		mux, w := manualMux(t, discard{})
		w.rtt.sample(int64(100 * time.Microsecond))
		rto := w.rtt.rto(tick)
		if rto != 300*time.Microsecond {
			t.Fatalf("a 100µs round trip gives rto %v, want 300µs", rto)
		}
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
		twin := newBackoff(tick, 9, 0) // arm's draw, then the attach step's from the worker's timeout
		twin.reset(rto)
		twin.arm(0)
		grid := sess.tickNext % int64(tick)
		want, offGrid := 1, 0
		for w.turn(); rep == nil; {
			at, sent := w.timers[0].at, sess.framesTx
			mux.loop.clock = at
			w.turn()
			due := twin.due(at) && at < int64(life)
			if rep == nil && (sess.framesTx-sent == 1) != due {
				t.Fatalf("at %v the sender sent %d frames, but its twin backoff was due: %v", time.Duration(at), sess.framesTx-sent, due)
			}
			// The attach step's instant was armed after the session's entry
			// was pushed, so that entry pops it late; every later one is
			// the sender's own.
			if due && want > 1 && at != twin.next {
				t.Fatalf("the sender stepped at %v, not at its backoff's %v", time.Duration(at), time.Duration(twin.next))
			}
			if due {
				want++
				if at%int64(tick) != grid {
					offGrid++
				}
				twin.grow()
				twin.arm(at)
			}
		}
		if rep.Complete || rep.SafetyViolation != nil || rep.Elapsed != life {
			t.Fatalf("complete=%v violation=%v after %v over a link that delivers nothing", rep.Complete, rep.SafetyViolation, rep.Elapsed)
		}
		if rep.FramesTx != want || want < 8 {
			t.Errorf("FramesTx = %d in %v, want the capped backoff law's %d", rep.FramesTx, rep.Elapsed, want)
		}
		if offGrid < want/2 {
			t.Errorf("%d of %d sender steps fell off the receiver's tick grid, want most", offGrid, want-1)
		}
		if rep.Retransmits != rep.FramesTx-1 {
			t.Errorf("Retransmits = %d of %d frames, want all but the first", rep.Retransmits, rep.FramesTx)
		}
	})
}
