package wire

import (
	"context"
	"runtime"
	"testing"

	"seqtx/internal/channel"
	"seqtx/internal/protocol"
	"seqtx/internal/protocol/alphaproto"
	"seqtx/internal/protocol/steptest"
)

// Steady-state allocation contracts, enforced with testing.AllocsPerRun:
// the data plane's per-frame operations must not allocate once their
// buffers are warm. These are the regressions the pooled codec and the
// in-place batch accumulation exist to prevent — a future change that
// reintroduces a hidden malloc fails here, not in a benchmark someone
// has to remember to read.

// assertZeroAlloc runs f under AllocsPerRun and fails on any allocation.
func assertZeroAlloc(t *testing.T, name string, f func()) {
	t.Helper()
	if n := testing.AllocsPerRun(200, f); n != 0 {
		t.Errorf("%s: %.1f allocs/op in steady state, want 0", name, n)
	}
}

func TestCodecSteadyStateZeroAlloc(t *testing.T) {
	frame := Frame{Session: 42, Dir: channel.SToR, Msg: "d:3"}
	raw := EncodeFrame(frame)

	buf := make([]byte, 0, 64)
	assertZeroAlloc(t, "AppendFrame into reused buffer", func() {
		buf = AppendFrame(buf[:0], frame)
	})

	var v FrameView
	assertZeroAlloc(t, "DecodeFrameInto", func() {
		if err := DecodeFrameInto(&v, raw); err != nil {
			t.Fatal(err)
		}
	})

	frames := make([][]byte, 32)
	for i := range frames {
		frames[i] = raw
	}
	blob := make([]byte, 0, 2048)
	assertZeroAlloc(t, "AppendBatch into reused buffer", func() {
		blob = AppendBatch(blob[:0], frames)
	})

	split := func(f []byte) error { return DecodeFrameInto(&v, f) }
	assertZeroAlloc(t, "SplitBatch + DecodeFrameInto", func() {
		if err := SplitBatch(blob, split); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStepSteadyStateZeroAlloc extends the data-plane contract to the
// protocol Step path itself: with the declared message tables, every
// finite-alphabet protocol's steady-state sender tick, receiver
// recv-data, sender recv-ack, and the decode miss at either end (a
// message in neither alphabet) must not allocate. The steptest
// fixtures pin what "steady state" means per protocol (see that
// package); Stenning is exempt (Finite=false) because its unbounded
// sequence numbers make the codec dynamic by design.
func TestStepSteadyStateZeroAlloc(t *testing.T) {
	for _, f := range steptest.Fixtures() {
		if !f.Finite {
			continue
		}
		f := f
		t.Run(f.Name, func(t *testing.T) {
			s, r, err := f.New()
			if err != nil {
				t.Fatal(err)
			}
			// Extra warm ticks take the windowed senders through their
			// first stall→burst cycle so the one-time scratch-buffer
			// growth happens before measurement.
			for i := 0; i < 32; i++ {
				s.Step(protocol.TickEvent())
			}
			tickEv := protocol.TickEvent()
			assertZeroAlloc(t, f.Name+" sender tick", func() { s.Step(tickEv) })
			dataEv := protocol.RecvEvent(f.Data)
			assertZeroAlloc(t, f.Name+" receiver recv-data", func() { r.Step(dataEv) })
			ackEv := protocol.RecvEvent(f.Ack)
			assertZeroAlloc(t, f.Name+" sender recv-ack", func() { s.Step(ackEv) })
			alienEv := protocol.RecvEvent(f.Alien)
			assertZeroAlloc(t, f.Name+" receiver recv-alien", func() { r.Step(alienEv) })
			assertZeroAlloc(t, f.Name+" sender recv-alien", func() { s.Step(alienEv) })
		})
	}
}

func TestBufferPoolZeroAlloc(t *testing.T) {
	// Warm both classes first so the pools hold a buffer.
	putBuf(getBuf(16))
	putBuf(getBuf(blobCap))
	assertZeroAlloc(t, "small buffer get/put cycle", func() {
		putBuf(getBuf(16))
	})
	assertZeroAlloc(t, "blob buffer get/put cycle", func() {
		putBuf(getBuf(blobCap))
	})
}

// TestSessionEventsSteadyStateZeroAlloc extends the contract to the
// loop's per-event path for a plain session: a timer wakeup — the
// receiver's tick, the sender's retransmission when the backoff agrees,
// the heap entry's re-arm, the worker shipping what that sent — and a
// service call that drains a stale acknowledgement allocate nothing,
// whatever supervision and paced starts added to Session and to fire: a
// plain session pays a nil check. Nor does a whole burst appended and
// shipped, from the first one on: the worker's chunks are born at size.
func TestSessionEventsSteadyStateZeroAlloc(t *testing.T) {
	w, s := detachedSession(t, "alpha", zooParams, rampTape(4))
	assertZeroAlloc(t, "worker send + flushOut", func() {
		for i := 0; i < 64; i++ {
			if err := w.send(1, SenderEnd, "d:0"); err != nil {
				t.Fatal(err)
			}
		}
		w.flushOut()
	})
	w.turn()
	wakeup := func() { // a whole turn: the ready-queue swap, the due timer, the shipping
		w.eng.clock += int64(s.cfg.Tick)
		w.turn()
	}
	for i := 0; i < 64; i++ { // past the backoff's growth, so both kinds of tick recur
		wakeup()
	}
	sent := s.framesTx
	assertZeroAlloc(t, "plain session timer wakeup", wakeup)
	if s.framesTx == sent || s.finished || len(w.timers) != 1 {
		t.Fatalf("the measured wakeups retransmitted %d frames (finished=%v, %d heap entries)", s.framesTx-sent, s.finished, len(w.timers))
	}
	stale := alphaproto.AckMsg(3)
	assertZeroAlloc(t, "plain session service", func() { deliverAcks(w, s, stale) })
}

// TestServeAllocBudget pins a wave's allocation contract (DESIGN §11): one
// Serve of 128 alpha(m = 8) sessions of 8 items over a bare Inproc, into
// the nil sink, makes at most one allocation a session. The sessions come
// from chunks and their tapes from one slab apiece, the wave shares one
// completion callback, a report hands over the tapes it names, and the
// nil sink formats no event field (ids start at 1001: past 99,
// strconv.FormatUint allocates). The processes are built before the count
// starts, and a one-session wave first pays the process's one-time costs
// (the runtime's first timer, the buffer pools); the pool is pinned at two
// workers so the count does not grow with the machine's CPUs.
func TestServeAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	serve := func(cfgs []SessionConfig) []Report {
		reports, err := Serve(context.Background(), ServeConfig{Transport: NewInproc(0, nil), Sessions: cfgs})
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
		return reports
	}
	serve(sessionConfigs(t, 1, 8, 8, DefaultTick))

	const n = 128
	cfgs := sessionConfigs(t, n, 8, 8, DefaultTick)
	for i := range cfgs {
		cfgs[i].ID = uint64(1001 + i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reports := serve(cfgs)
	runtime.ReadMemStats(&after)
	for _, rep := range reports {
		if !rep.Complete {
			t.Fatalf("session %d incomplete: %d of %d items", rep.ID, len(rep.Output), len(rep.Input))
		}
	}
	allocs := after.Mallocs - before.Mallocs
	t.Logf("one Serve of %d sessions: %d allocations (%.2f a session)", n, allocs, float64(allocs)/n)
	if allocs > n {
		t.Errorf("one Serve of %d sessions made %d allocations, want at most %d (one a session)", n, allocs, n)
	}
}
