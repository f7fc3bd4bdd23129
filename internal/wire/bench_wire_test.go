package wire

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
)

// benchFrame is a representative data frame: a mid-range session id and a
// short alphabet payload, the shape every live run sends millions of.
var benchFrame = Frame{Session: 42, Dir: channel.SToR, Msg: "d:3"}

func BenchmarkAppendFrame(b *testing.B) {
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], benchFrame)
	}
	_ = buf
}

func BenchmarkEncodeFrame(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = EncodeFrame(benchFrame)
	}
}

func BenchmarkDecodeFrame(b *testing.B) {
	raw := EncodeFrame(benchFrame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeFrame(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeFrameInto(b *testing.B) {
	raw := EncodeFrame(benchFrame)
	var v FrameView
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeFrameInto(&v, raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchRoundTrip packs 64 frames into one blob and splits it
// again — the per-burst cost a shipping worker and the routers pay.
func BenchmarkBatchRoundTrip(b *testing.B) {
	raw := EncodeFrame(benchFrame)
	frames := make([][]byte, 64)
	for i := range frames {
		frames[i] = raw
	}
	blob := make([]byte, 0, 4096)
	var v FrameView
	decode := func(frame []byte) error { return DecodeFrameInto(&v, frame) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob = AppendBatch(blob[:0], frames)
		if err := SplitBatch(blob, decode); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCredits bounds the frames in flight through the pump. It is kept
// below every buffer on the path (transport queues, per-session inboxes
// spread round-robin) so no frame is ever dropped: the closed loop then
// measures true pipeline cost per delivered frame, not drop-and-retry
// waste. A dropped frame would leak a credit and eventually stall the
// pump, so the margin matters.
const benchCredits = 16384

// benchCreditChunk is how many credits a sender claims per atomic
// operation; chunking keeps the harness's own atomics off the per-frame
// cost. Worst-case overshoot is senders × chunk beyond benchCredits,
// which the buffer margins absorb.
const benchCreditChunk = 64

// benchPump is a closed-loop data-plane pump: nSessions sessions are
// registered on a mux over tr, sender goroutines — each driving a detached
// loop worker of its own, as a running worker drives its send path — push
// in-alphabet frames round-robin under a credit bound, shipping once per
// credit chunk, and a drainer counts what lands in the inboxes. The
// reported ns/op is wall time per *delivered* frame.
func benchPump(b *testing.B, tr Transport, nSessions, credits int) {
	b.Helper()
	// The arrival path is what is under test; the engine has nothing to
	// run — the pumping goroutines below each drive a worker of their own,
	// and the transport pushes what they ship into the inboxes.
	mux := newMux(tr, MuxConfig{}, true)
	if !mux.push() {
		b.Fatalf("%s does not push", tr.Name())
	}
	params := registry.Params{M: 8}
	input := seq.Seq{0, 1, 2, 3, 4, 5, 6, 7}

	var delivered, outstanding atomic.Int64
	done := make(chan struct{})
	payloads := make([]msg.Msg, nSessions)
	inboxes := make([]*inbox, nSessions)
	for i := 0; i < nSessions; i++ {
		s, r, err := registry.Pair("alpha", params, input)
		if err != nil {
			b.Fatalf("Pair: %v", err)
		}
		// The credit bound assumes the original 1024-slot inboxes (credits
		// round-robin across sessions must fit below aggregate capacity);
		// the leaner DefaultInboxSize would drop frames and leak credits.
		sess, err := mux.NewSession(SessionConfig{
			ID: uint64(i + 1), Sender: s, Receiver: r, Input: input,
			InboxSize: 1024,
		})
		if err != nil {
			b.Fatalf("NewSession: %v", err)
		}
		payloads[i] = s.Alphabet().Msgs()[0]
		inboxes[i] = &sess.receiverInbox
	}
	// One drainer sweeps every inbox (each still has exactly one
	// consumer, as the SPSC rings require) and yields when a whole sweep
	// comes up empty — the sessions are registered but never started, so
	// no loop worker competes for the inboxes.
	go func() {
		var batch []msg.Msg
		for {
			got := 0
			for _, q := range inboxes {
				batch = q.drain(batch)
				got += len(batch)
			}
			if got == 0 {
				select {
				case <-done:
					return
				default:
					runtime.Gosched()
				}
				continue
			}
			outstanding.Add(int64(-got))
			if delivered.Add(int64(got)) >= int64(b.N) {
				close(done)
				return
			}
		}
	}()

	senders := 2
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lw := newLoopWorker(mux.loop)
			i := w
			local := 0
			for {
				// The stop check and the credit claim are amortized over a
				// chunk so the harness's own bookkeeping stays off the
				// per-frame cost.
				if local == 0 {
					lw.flushOut()
					select {
					case <-done:
						return
					default:
					}
					if outstanding.Load() >= int64(credits) {
						runtime.Gosched()
						continue
					}
					outstanding.Add(benchCreditChunk)
					local = benchCreditChunk
				}
				local--
				id := uint64(i%nSessions + 1)
				_ = lw.send(id, SenderEnd, payloads[i%nSessions])
				i++
			}
		}(w)
	}
	<-done
	elapsed := time.Since(start)
	b.StopTimer()
	wg.Wait()
	mux.Close()
	if s := elapsed.Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "frames/s")
	}
}

// BenchmarkMuxInprocPump64 is the headline data-plane number: frames/sec
// through encode → inproc transport → decode → route → inbox with 64
// concurrent sessions on one mux.
func BenchmarkMuxInprocPump64(b *testing.B) {
	benchPump(b, NewInproc(8192, nil), 64, benchCredits)
}

// BenchmarkMuxInprocPump8 is the low-concurrency comparison point. Fewer
// sessions mean less aggregate inbox capacity, so the credit bound drops
// with them.
func BenchmarkMuxInprocPump8(b *testing.B) {
	benchPump(b, NewInproc(8192, nil), 8, 1024)
}

// BenchmarkMuxImpairedPump64 adds the impairment layer (no active faults,
// as stpserve always configures) so its locking shows up in the number.
func BenchmarkMuxImpairedPump64(b *testing.B) {
	opts, err := ImpairPreset("none")
	if err != nil {
		b.Fatalf("ImpairPreset: %v", err)
	}
	tr, err := NewImpairment(NewInproc(8192, nil), opts, nil)
	if err != nil {
		b.Fatalf("NewImpairment: %v", err)
	}
	benchPump(b, tr, 64, benchCredits)
}

// BenchmarkUDPPath measures the loopback datagram path: pre-encoded
// frames through Send → kernel → read loop → Recv, allocations included.
// ns/op is wall time per delivered frame (kernel drops excluded by the
// closed loop).
func BenchmarkUDPPath(b *testing.B) {
	tr, err := NewUDP(nil)
	if err != nil {
		b.Fatalf("NewUDP: %v", err)
	}
	defer tr.Close()
	raw := EncodeFrame(benchFrame)
	var delivered, outstanding atomic.Int64
	done := make(chan struct{})
	go func() {
		for raw := range tr.Recv(ReceiverEnd) {
			ReleaseBuf(raw)
			outstanding.Add(-1)
			if delivered.Add(1) >= int64(b.N) {
				close(done)
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for {
		select {
		case <-done:
		default:
			if outstanding.Load() >= 1024 {
				runtime.Gosched()
				continue
			}
			outstanding.Add(1)
			if err := tr.Send(SenderEnd, raw); err != nil {
				b.Fatalf("Send: %v", err)
			}
			continue
		}
		break
	}
	elapsed := time.Since(start)
	b.StopTimer()
	if s := elapsed.Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "frames/s")
	}
}

// BenchmarkSessionLifecycle prices a session's construction and finish on
// the manual mux: NewSession, the attaching turn (its fill's frames go to
// discard{}), a cancel and the finishing turn that builds the report —
// no traffic beyond the attach. Per op: one session.
func BenchmarkSessionLifecycle(b *testing.B) {
	mux, w := manualMux(b, discard{})
	x := seq.Seq{0, 1, 2, 3, 4, 5, 6, 7}
	const batch = 1024
	type pair struct {
		s protocol.Sender
		r protocol.Receiver
	}
	pairs := make([]pair, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%batch == 0 {
			b.StopTimer()
			for j := range pairs {
				s, r, err := registry.Pair("alpha", registry.Params{M: 8}, x)
				if err != nil {
					b.Fatalf("Pair: %v", err)
				}
				pairs[j] = pair{s, r}
			}
			b.StartTimer()
		}
		p := pairs[i%batch]
		sess, err := mux.NewSession(SessionConfig{ID: 1, Sender: p.s, Receiver: p.r, Input: x})
		if err != nil {
			b.Fatalf("NewSession: %v", err)
		}
		done := false
		mux.loop.start(context.Background(), sess, 0, func(*Session, Report) { done = true })
		w.turn()
		mux.loop.cancel(sess)
		w.turn()
		if !done {
			b.Fatal("cancelled session did not finish")
		}
	}
}

// BenchmarkWindowFill prices one progress cycle of a pipelined sender on
// the manual mux: an acknowledgement that moves a selrepeat W = 16 sender,
// the progress probe (the sender's Moved report) that sees it, and the
// fill that puts the one fresh frame on the wire (shipped to a discarding
// transport). The acknowledgements are the receiver alphabet's own
// interned messages, as Mux.arrive delivers them. One op is one frame.
func BenchmarkWindowFill(b *testing.B) {
	const w = 16
	mux, lw := manualMux(b, discard{})
	input := make(seq.Seq, b.N+2*w)
	for i := range input {
		input[i] = seq.Item(i % 64)
	}
	s, r, err := registry.Pair("selrepeat", registry.Params{M: 64, Window: w}, input)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := mux.NewSession(SessionConfig{ID: 1, Sender: s, Receiver: r, Input: input, Tick: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	mux.loop.start(context.Background(), sess, 0, func(*Session, Report) {})
	lw.turn() // attach: the first window goes out
	acks := make([]msg.Msg, 2*w)
	for n := range acks {
		acks[n], _ = sess.receiverAlphabet.Canonical([]byte(msg.Format("sa", n)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := deliverAcks(lw, sess, acks[i%(2*w)]); n != 1 {
			b.Fatalf("ack %d sent %d frames, want 1", i, n)
		}
	}
}
