package wire

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"seqtx/internal/channel"
	"seqtx/internal/protocol"
	"seqtx/internal/protocol/alphaproto"
	"seqtx/internal/protocol/selrepeat"
	"seqtx/internal/registry"
)

// recorder is a transport that keeps what the mux hands it, call by call,
// until it is closed, and delivers none of it; Recv is the embedded
// transport's, which a test may also feed directly.
type recorder struct {
	Transport
	closing chan struct{} // closed by Close

	mu     sync.Mutex
	closed bool
	calls  []shipment
}

func newRecorder() *recorder {
	return &recorder{Transport: NewInproc(0, nil), closing: make(chan struct{})}
}

// shipment is one Send or SendBatch call, decoded.
type shipment struct {
	from   End
	frames []Frame
}

func (r *recorder) record(from End, raws ...[]byte) error {
	sh := shipment{from: from}
	for _, raw := range raws {
		f, err := decodeFrame(raw)
		if err != nil {
			return err
		}
		sh.frames = append(sh.frames, f)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	r.calls = append(r.calls, sh)
	return nil
}

func (r *recorder) Close() error {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.closing)
	}
	r.mu.Unlock()
	return r.Transport.Close()
}

func (r *recorder) Send(from End, frame []byte) error { return r.record(from, frame) }

func (r *recorder) SendBatch(from End, frames [][]byte) error { return r.record(from, frames...) }

// shipped returns the calls recorded so far and how many frames they held.
func (r *recorder) shipped() (calls []shipment, frames int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, sh := range r.calls {
		frames += len(sh.frames)
	}
	return append([]shipment(nil), r.calls...), frames
}

// TestWorkerShipsItsBurst pins the one way from Step to a transport: what
// a worker's sessions send is appended to the worker's own chunks and
// reaches the transport when the worker ships — one sendFrames call an
// end, frames in the order they were sent — which a running worker does
// by itself before it parks; and a chunk with no room left is shipped
// early, not dropped from.
func TestWorkerShipsItsBurst(t *testing.T) {
	rec := newRecorder()
	mux, w := manualMux(t, rec)
	const window = 4
	params := registry.Params{M: 16, Window: window}
	x := rampTape(16)
	session := func(mux *Mux, id uint64) *Session {
		s, r, err := registry.Pair("selrepeat", params, x)
		if err != nil {
			t.Fatalf("Pair: %v", err)
		}
		sess, err := mux.NewSession(SessionConfig{ID: id, Sender: s, Receiver: r, Input: x, Tick: time.Hour})
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		return sess
	}

	// One burst, driven by hand on a manual engine's worker: three sessions
	// attach, each filling its window, then each receiver acknowledges one
	// delivery. A twin sender per session, ticked once a window slot, says
	// what was sent and in which order.
	var want [2][]Frame // indexed End-1
	var burst []*Session
	var twins []protocol.Sender
	for id := uint64(1); id <= 3; id++ {
		s := session(mux, id)
		mux.loop.start(context.Background(), s, 0, func(*Session, Report) {})
		burst = append(burst, s)
		twin, _, err := registry.Pair("selrepeat", params, x)
		if err != nil {
			t.Fatalf("Pair: %v", err)
		}
		twins = append(twins, twin)
	}
	for i, s := range burst {
		w.service(s) // attach: the fill, a fresh frame a step until the window is full
		for range window {
			for _, mg := range twins[i].Step(protocol.TickEvent()) {
				want[SenderEnd-1] = append(want[SenderEnd-1], Frame{Session: s.cfg.ID, Dir: channel.SToR, Msg: mg})
			}
		}
	}
	for _, s := range burst {
		s.receiverInbox.stage(selrepeat.DataMsg(2*window, 0, x[0]))
		s.receiverInbox.publish()
		w.service(s)
		want[ReceiverEnd-1] = append(want[ReceiverEnd-1], Frame{Session: s.cfg.ID, Dir: channel.RToS, Msg: selrepeat.AckMsg(2*window, 0)})
	}
	if len(want[SenderEnd-1]) < 3*window {
		t.Fatalf("the burst holds %d data frames, want at least %d", len(want[SenderEnd-1]), 3*window)
	}
	if calls, _ := rec.shipped(); len(calls) != 0 {
		t.Fatalf("%d transport calls before the worker shipped", len(calls))
	}
	w.flushOut()
	calls, _ := rec.shipped()
	if len(calls) != 2 {
		t.Fatalf("the burst took %d transport calls, want one an end", len(calls))
	}
	for _, sh := range calls {
		if !reflect.DeepEqual(sh.frames, want[sh.from-1]) {
			t.Errorf("from the %s end: shipped %v, sent %v", sh.from, sh.frames, want[sh.from-1])
		}
	}
	for i := range w.out {
		if n := len(w.out[i].frames); n != 0 {
			t.Errorf("%d frames left in chunk %d after flushOut", n, i)
		}
	}

	// A chunk driven past maxBatchFrames ships on the spot and loses nothing.
	payload := selrepeat.DataMsg(2*window, 0, x[0])
	const extra = 10
	for i := 0; i < maxBatchFrames+extra; i++ {
		if err := w.send(1, SenderEnd, payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if calls, _ = rec.shipped(); len(calls) != 3 || len(calls[2].frames) != maxBatchFrames {
		t.Fatalf("a full chunk: %d transport calls, want a third of exactly %d frames", len(calls), maxBatchFrames)
	}
	w.flushOut()
	if calls, _ = rec.shipped(); len(calls) != 4 || len(calls[3].frames) != extra {
		t.Fatalf("after the full chunk: %d transport calls, want a fourth of the remaining %d frames", len(calls), extra)
	}

	// A running worker ships its bursts unasked and parks with nothing
	// pending: every session's attach frames (a window each) reach the
	// transport though no timer (an hour's tick) and no other goroutine
	// will ever flush them.
	rec = newRecorder()
	live := NewMuxConfig(rec, MuxConfig{})
	defer live.Close()
	const n = 32
	for id := uint64(100); id < 100+n; id++ {
		live.loop.start(context.Background(), session(live, id), 0, func(*Session, Report) {})
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, got := rec.shipped(); got == n*window {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("%d of %d attach frames reached the transport", got, n*window)
		}
		time.Sleep(time.Millisecond)
	}
	for _, lw := range live.loop.workers {
		for lw.parked.Load() == awake {
			if time.Now().After(deadline) {
				t.Fatal("a worker with nothing to do never parked")
			}
			time.Sleep(time.Millisecond)
		}
		for i := range lw.out {
			if n := len(lw.out[i].frames); n != 0 {
				t.Errorf("a worker parked with %d frames in chunk %d", n, i)
			}
		}
	}
}

// TestCloseShipsPendingFrames guards Mux.Close's order — engine, then
// transport: a receiver half's session ends inside the service call that
// acknowledged its last item, its caller closes the mux as soon as it has
// the report (as Serve does), and the acknowledgement, which the remote
// sender needs to be Done, must still reach the transport. The report
// callback holds the worker between the two — until the transport closes,
// if Close takes it first, or for a moment, if Close is already waiting
// for the worker — so either order shows.
func TestCloseShipsPendingFrames(t *testing.T) {
	x := rampTape(6)
	rec := newRecorder()
	mux := NewMuxConfig(rec, MuxConfig{})
	s, r, err := registry.Pair("alpha", zooParams, x)
	if err != nil {
		t.Fatalf("Pair: %v", err)
	}
	sess, err := mux.NewSession(SessionConfig{ID: 1, Sender: s, Receiver: r, Input: x, Tick: time.Hour, Half: ReceiverEnd})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	// The remote sender's whole run is on the link before R starts.
	for _, item := range x {
		frame := EncodeFrame(Frame{Session: 1, Dir: channel.SToR, Msg: alphaproto.DataMsg(item)})
		if err := rec.Transport.Send(SenderEnd, frame); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	reported := make(chan Report, 1)
	mux.loop.start(contextWithTimeout(t, 10*time.Second), sess, 0, func(_ *Session, rep Report) {
		reported <- rep
		select {
		case <-rec.closing:
		case <-time.After(20 * time.Millisecond):
		}
	})
	rep := <-reported
	mux.Close()
	if !rep.Complete {
		t.Fatalf("complete=%v violation=%v", rep.Complete, rep.SafetyViolation)
	}
	last := alphaproto.AckMsg(x[len(x)-1])
	calls, _ := rec.shipped()
	for _, sh := range calls {
		for _, f := range sh.frames {
			if sh.from == ReceiverEnd && f.Msg == last {
				return
			}
		}
	}
	t.Fatalf("the mux closed and the final acknowledgement %s never reached the transport: %v", last, calls)
}
