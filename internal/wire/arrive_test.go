package wire

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/obs"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
)

// arrivalFixture registers n alpha sessions (ids 1..n) on a manual mux over
// discard{}, never started, and returns a 64-frame burst of in-alphabet
// data frames spread over them, a lone frame, and their receiver inboxes.
func arrivalFixture(t testing.TB, n int) (*Mux, [][]byte, []*inbox) {
	t.Helper()
	mux, _ := manualMux(t, discard{})
	x := seq.Seq{0, 1, 2, 3}
	inboxes := make([]*inbox, n)
	payloads := make([]msg.Msg, n)
	for i := range inboxes {
		s, r, err := registry.Pair("alpha", zooParams, x)
		if err != nil {
			t.Fatalf("Pair: %v", err)
		}
		sess, err := mux.NewSession(SessionConfig{ID: uint64(i + 1), Sender: s, Receiver: r, Input: x, InboxSize: 1024})
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		inboxes[i] = &sess.receiverInbox
		payloads[i] = s.Alphabet().Msgs()[i%2]
	}
	burst := make([][]byte, 64)
	for i := range burst {
		burst[i] = EncodeFrame(Frame{Session: uint64(i%n + 1), Dir: channel.SToR, Msg: payloads[i%n]})
	}
	return mux, burst, inboxes
}

// drainAll empties the inboxes as their workers would, and counts.
func drainAll(inboxes []*inbox, scratch []msg.Msg) int {
	got := 0
	for _, q := range inboxes {
		got += len(q.drain(scratch))
	}
	return got
}

// TestArrivalSteadyStateZeroAlloc: the one arrival path — a burst of frames
// as Inproc hands it over, a batch blob as a UDP reader does, a lone frame
// — decodes, validates, stages and publishes without allocating, on the
// nil sink and on a live registry alike.
func TestArrivalSteadyStateZeroAlloc(t *testing.T) {
	mux, burst, inboxes := arrivalFixture(t, 8)
	blob := AppendBatch(nil, burst)
	scratch := make([]msg.Msg, 0, 1024)
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		mux.met = newMuxMetrics(reg)
		warm := func() {
			mux.arrive(ReceiverEnd, burst...)
			if got := drainAll(inboxes, scratch); got != len(burst) {
				t.Fatalf("a burst of %d frames staged %d", len(burst), got)
			}
		}
		warm()
		assertZeroAlloc(t, "a warm burst", warm)
		assertZeroAlloc(t, "a batch blob", func() {
			mux.arrive(ReceiverEnd, blob)
			drainAll(inboxes, scratch)
		})
		assertZeroAlloc(t, "a lone frame", func() {
			mux.arrive(ReceiverEnd, burst[0])
			drainAll(inboxes[:1], scratch)
		})
	}
}

// BenchmarkArrive prices Mux.arrive per frame: a 64-frame burst over eight
// sessions (what a shipping worker hands Inproc), the same burst as one
// batch blob (what a UDP reader holds), and a lone frame.
func BenchmarkArrive(b *testing.B) {
	mux, burst, inboxes := arrivalFixture(b, 8)
	scratch := make([]msg.Msg, 0, 1024)
	for _, c := range []struct {
		name    string
		blobs   [][]byte
		n       int
		inboxes []*inbox // the ones the blobs fill
	}{
		{"burst", burst, len(burst), inboxes},
		{"batch", [][]byte{AppendBatch(nil, burst)}, len(burst), inboxes},
		{"lone", burst[:1], 1, inboxes[:1]},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mux.arrive(ReceiverEnd, c.blobs...)
				drainAll(c.inboxes, scratch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.n), "ns/frame")
		})
	}
}

// TestArrivalPushed pins the push path: a transport that pushes gets no
// router, what a worker ships arrives on the worker's own goroutine, and
// the arrival lock keeps the inboxes single-producer when impairment
// releases ship other sessions' frames from other workers.
func TestArrivalPushed(t *testing.T) {
	t.Run("flushOut publishes in the peer inbox", func(t *testing.T) {
		reg := obs.NewRegistry()
		tr := NewInproc(0, nil)
		mux := newMux(tr, MuxConfig{Obs: reg}, true)
		t.Cleanup(func() { mux.Close() })
		if !mux.push() {
			t.Fatal("Inproc does not push")
		}
		w := mux.loop.workers[0]
		x := seq.Seq{0, 1, 2, 3}
		s, r, err := registry.Pair("alpha", zooParams, x)
		if err != nil {
			t.Fatalf("Pair: %v", err)
		}
		sess, err := mux.NewSession(SessionConfig{ID: 1, Sender: s, Receiver: r, Input: x, Tick: time.Hour})
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		mux.loop.start(context.Background(), sess, 0, func(*Session, Report) {})
		// The worker's turn attaches the session, which sends its first data
		// frame, and ships it: nothing else runs, yet the frame is published
		// in the receiver inbox and the session is back on the ready queue.
		w.turn()
		snap := reg.Snapshot().Counters
		if tx, rx := snap[`wire_frames_tx_total{dir="s_to_r"}`], snap[`wire_frames_rx_total{dir="s_to_r"}`]; tx != 1 || rx != 1 {
			t.Fatalf("frames tx %d, rx %d after the attach turn, want 1 and 1", tx, rx)
		}
		if pub := sess.receiverInbox.tail.Load() - sess.receiverInbox.head.Load(); pub != 1 {
			t.Fatalf("%d frames published in the receiver inbox, want 1", pub)
		}
		if len(w.ready) != 1 || w.ready[0] != sess || !sess.scheduled.Load() {
			t.Fatalf("ready queue %v after the arrival, want the session alone", w.ready)
		}
		if len(tr.toReceiver) != 0 || len(tr.toSender) != 0 {
			t.Fatalf("Inproc queued %d + %d blobs under a mux", len(tr.toReceiver), len(tr.toSender))
		}
		// The next turn is the receiver's step and its acknowledgement's
		// arrival at the sender: one round trip in two turns of one worker.
		w.turn()
		snap = reg.Snapshot().Counters
		if tx, rx := snap[`wire_frames_tx_total{dir="r_to_s"}`], snap[`wire_frames_rx_total{dir="r_to_s"}`]; tx != 1 || rx != 1 {
			t.Fatalf("acks tx %d, rx %d after the second turn, want 1 and 1", tx, rx)
		}
	})
	for _, preset := range []string{"reorder", "partition-heal"} {
		t.Run(preset+" fleet on two workers", func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
			opts, err := ImpairPreset(preset)
			if err != nil {
				t.Fatalf("ImpairPreset: %v", err)
			}
			tr, err := NewImpairment(NewInproc(0, nil), opts, nil)
			if err != nil {
				t.Fatalf("NewImpairment: %v", err)
			}
			before := runtime.NumGoroutine()
			mux := NewMuxConfig(tr, MuxConfig{})
			if n := len(mux.loop.workers); n != 2 {
				t.Fatalf("%d workers, want 2", n)
			}
			if g := runtime.NumGoroutine() - before; g > 2 {
				t.Errorf("%d goroutines for a mux of two workers: a router started", g)
			}
			cfgs := zooSessions(t, "alpha", 256, time.Millisecond, 30*time.Second, 0)
			reports := make([]Report, len(cfgs))
			var wg sync.WaitGroup
			for i, c := range cfgs {
				sess, err := mux.NewSession(c)
				if err != nil {
					t.Fatalf("NewSession: %v", err)
				}
				wg.Add(1)
				mux.loop.start(context.Background(), sess, 0, func(_ *Session, rep Report) { reports[i] = rep; wg.Done() })
			}
			wg.Wait()
			if err := mux.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			for _, rep := range reports {
				if rep.SafetyViolation != nil || !rep.Complete {
					t.Errorf("session %d: complete=%v violation=%v", rep.ID, rep.Complete, rep.SafetyViolation)
				}
			}
		})
	}
}

// TestLoopPrecisePark: an idle worker whose only entry is due in 200 µs
// parks precisely on Linux (and on the Go timer elsewhere), once, and wakes
// for the entry.
func TestLoopPrecisePark(t *testing.T) {
	reg := obs.NewRegistry()
	mux := newMux(discard{}, MuxConfig{Obs: reg}, true)
	t.Cleanup(func() { mux.Close() })
	w := mux.loop.workers[0]
	x := seq.Seq{0, 1}
	s, r, err := registry.Pair("alpha", zooParams, x)
	if err != nil {
		t.Fatalf("Pair: %v", err)
	}
	sess, err := mux.NewSession(SessionConfig{ID: 1, Sender: s, Receiver: r, Input: x})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	// A start 200 µs away: the turn puts the session's one entry there.
	const due = 200 * time.Microsecond
	mux.loop.start(context.Background(), sess, due, func(*Session, Report) {})
	w.turn()
	if len(w.timers) != 1 || len(w.ready) != 0 {
		t.Fatalf("%d heap entries and %d ready sessions, want the one entry alone", len(w.timers), len(w.ready))
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	began := time.Now()
	w.park(timer)
	slept := time.Since(began)
	want := map[string]int64{"precise": 1, "coarse": 0}
	if runtime.GOOS != "linux" {
		want = map[string]int64{"precise": 0, "coarse": 1}
	}
	snap := reg.Snapshot().Counters
	for kind, n := range want {
		if got := snap[`wire_worker_parks_total{park="`+kind+`"}`]; got != n {
			t.Errorf("%d %s parks, want %d", got, kind, n)
		}
	}
	if slept < due {
		t.Errorf("the park returned after %v, before the entry's %v", slept, due)
	}
	if w.parked.Load() != awake {
		t.Error("the worker is still flagged parked after waking")
	}
}
