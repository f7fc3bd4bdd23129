package wire

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"seqtx/internal/msg"
	"seqtx/internal/protocol"
)

// maxLoopWorkers caps the worker pool: past the point where every CPU
// has a worker, more loops only add queues to migrate sessions across.
const maxLoopWorkers = 64

// timerEntry is one session's pending wakeup — its start instant, then
// its nextWake — as nanoseconds on the engine timeline (loopEngine.now).
// Each unfinished session the worker has seen has exactly one live
// entry; a finished session's entry stays in the heap and is discarded
// when popped (lazy removal keeps pop O(log n) with no search).
type timerEntry struct {
	at int64
	s  *Session
}

// timerHeap is a binary min-heap on wake time, hand-rolled on a slice
// so push and pop stay inlineable and allocation-free at steady state
// (the backing array reaches fleet size once and is reused).
type timerHeap []timerEntry

func (h *timerHeap) push(at int64, s *Session) {
	*h = append(*h, timerEntry{at: at, s: s})
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		p := (i - 1) / 2
		if hh[p].at <= hh[i].at {
			break
		}
		hh[p], hh[i] = hh[i], hh[p]
		i = p
	}
}

func (h *timerHeap) pop() timerEntry {
	hh := *h
	top := hh[0]
	n := len(hh) - 1
	hh[0] = hh[n]
	hh[n] = timerEntry{} // release the *Session so finished fleets collect
	*h = hh[:n]
	hh = hh[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && hh[l].at < hh[small].at {
			small = l
		}
		if r < n && hh[r].at < hh[small].at {
			small = r
		}
		if small == i {
			break
		}
		hh[i], hh[small] = hh[small], hh[i]
		i = small
	}
	return top
}

// noDeadline is the deadlineAt of a session that never expires: later
// than any instant on the engine timeline, so the wake computation and
// the due-check need no "is there a deadline" branch.
const noDeadline = math.MaxInt64

// loopEngine is the mux's session executor: a fixed pool of workers,
// each owning a shard group of sessions. Frame arrivals, pacing ticks,
// paced starts and crash-restarts become events on a per-worker queue,
// the protocol Step runs to completion on the loop, and a session at
// rest costs a struct, two inboxes, and one timer-heap entry — no
// goroutines, no runtime timers, no contexts; that flat footprint is
// what lets one mux hold a million concurrent sessions. A session is
// pinned to one worker by id hash for its whole life, so all of its
// state is single-threaded with no per-field locking.
//
// Every instant the engine compares — heap keys, pacing ticks,
// deadlines, backoff — is an int64 of nanoseconds since epoch, read
// from the monotonic clock by now. One clock, one representation: a
// popped timer entry is due by the same reading fire judges it with.
//
// A manual engine is the same engine with no goroutine in it: one worker,
// whose turn its builder calls, and a now that returns clock, which only
// that caller moves. DetRun and the tests that fire timers at chosen
// readings drive the shipped service, fire and flushOut this way.
type loopEngine struct {
	m       *Mux
	epoch   time.Time
	manual  bool
	clock   int64
	workers []*loopWorker
	stop    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
}

// newLoopEngine builds the engine and its workers; NewMuxConfig starts them.
func newLoopEngine(m *Mux, manual bool) *loopEngine {
	workers := 1
	if !manual {
		workers = min(runtime.GOMAXPROCS(0), maxLoopWorkers)
	}
	e := &loopEngine{
		m:       m,
		epoch:   time.Now(),
		manual:  manual,
		workers: make([]*loopWorker, workers),
		stop:    make(chan struct{}),
	}
	for i := range e.workers {
		e.workers[i] = newLoopWorker(e)
	}
	return e
}

// newLoopWorker builds a worker with its buffers at working size; the
// caller decides what goroutine, if any, runs it.
func newLoopWorker(e *loopEngine) *loopWorker {
	w := &loopWorker{
		eng:    e,
		notify: make(chan struct{}, 1),
		batch:  make([]msg.Msg, 0, 64),
		ready:  make([]*Session, 0, 256), // as its swap buffer: a wave readies together
		swap:   make([]*Session, 0, 256),
		timers: make(timerHeap, 0, 256), // a wave's sessions each hold an entry
	}
	w.out = chunkPool.Get().(*[2]outChunk)
	return w
}

// workerFor pins a session id to a worker (Fibonacci hash, so sequential
// ids spread evenly).
func (e *loopEngine) workerFor(id uint64) *loopWorker {
	return e.workers[((id*fibMul)>>32)%uint64(len(e.workers))]
}

// now reads the engine timeline: monotonic nanoseconds since epoch, or
// the instant a manual engine's driver has set.
func (e *loopEngine) now() int64 {
	if e.manual {
		return e.clock
	}
	return int64(time.Since(e.epoch))
}

// unread is a service call's clock reading before the call needs one.
const unread = math.MinInt64

// instant returns *now, the one clock reading every event of a service
// call shares (one instant of the model, §2 Property 1), reading the clock
// into it at the call's first need: a call that needs none reads none.
func (e *loopEngine) instant(now *int64) int64 {
	if *now == unread {
		*now = e.now()
	}
	return *now
}

// start hands a registered session to its worker, its life to begin
// delay from now (a paced fleet's start instants; until then it holds a
// table slot and one heap entry, and frames for it wait in its inboxes).
// The session's deadlines — SessionConfig.Deadline and any ctx deadline
// — collapse into one instant on the engine timeline (arm), enforced by
// the worker's timer heap: no context tower, no runtime timers. ctx
// cancellation is the caller's to relay (cancel). onDone receives the
// session and its report on the worker goroutine as the session
// finishes; a wave shares one (Serve files the report by Session.index).
func (e *loopEngine) start(ctx context.Context, s *Session, delay time.Duration, onDone func(*Session, Report)) {
	s.startAt = e.now() + int64(delay)
	s.ctxDeadline = noDeadline
	if d, ok := ctx.Deadline(); ok {
		s.ctxDeadline = int64(d.Sub(e.epoch))
	}
	s.arm(s.startAt)
	s.onDone = onDone
	s.worker = e.workerFor(s.cfg.ID)
	s.worker.schedule(s)
}

// cancel requests a session finish early (the event-loop counterpart
// of ctx cancellation); the worker delivers the incomplete report.
func (e *loopEngine) cancel(s *Session) {
	s.cancelReq.Store(true)
	s.worker.schedule(s)
}

// close stops the workers and finishes any sessions still attached, so
// no Run or Serve caller is left waiting on a report. A manual engine's
// worker has no goroutine to do its shutdown; close does it here.
func (e *loopEngine) close() {
	e.once.Do(func() {
		close(e.stop)
		if e.manual {
			e.workers[0].shutdown()
		}
	})
	e.wg.Wait()
}

// loopWorker drives one shard group of sessions: a ready queue fed by
// frame arrivals and control operations (start, cancel), plus a timer heap
// for pacing ticks and deadlines. The ready queue is a mutex-guarded slice
// with a Dekker-style sleep handshake: the worker sets parked, then
// re-checks the queue once before parking, so a schedule either lands in
// that final check or sees the flag (under the same mutex) and wakes the
// worker the way it parked — a token on notify, or a kick of its precise
// timer. A busy worker costs producers one atomic load per wakeup attempt.
//
// The worker is also the only hand that puts its sessions' frames on the
// wire: send appends to out, run ships both chunks at the end of each
// burst of service. The channel owes the processes no ordering and no
// timing (paper §2, Property 1), so who ships a burst, and when, is free;
// and Transport.Send must not block, so shipping is a step, not a wait.
type loopWorker struct {
	eng *loopEngine

	mu      sync.Mutex
	ready   []*Session
	stopped bool

	parked atomic.Int32 // awake, parkCoarse or parkPrecise
	notify chan struct{}

	// Worker-owned (no locking): ready's swap buffer, the timer heap, the
	// drain scratch buffer, the pending outbound burst of each end (indexed
	// End-1) and the round-trip estimate behind the retransmission timeout,
	// shared by every session here so per-session state stays flat.
	swap   []*Session
	timers timerHeap
	batch  []msg.Msg
	out    *[2]outChunk // from chunkPool; nil once shut down
	rtt    rttEstimate

	// pt is the precise timer, made by the first park that wants one (nil
	// off Linux). It is kicked and closed only under mu.
	pt *preciseTimer
}

// A worker's park states: a Go timer and notify, or its precise timer.
const (
	awake int32 = iota
	parkCoarse
	parkPrecise
)

// preciseBelow bounds a precise park: the runtime's idle netpoll sleeps in
// whole milliseconds, so a Go timer due sooner oversleeps to ≈ 1.1 ms.
const preciseBelow = time.Millisecond

// outChunk is what a worker's sessions have sent from one end since the
// worker last shipped: encoded frames appended back to back into a pooled
// blobCap buffer, and the per-frame views of it that sendFrames takes.
type outChunk struct {
	buf    []byte
	frames [][]byte
}

// chunkPool recycles a worker's pair of chunks, buffers and frame views
// at working size, across the muxes a process builds one after another
// (a fleet wave each): newLoopWorker takes a pair, shutdown returns it.
var chunkPool = sync.Pool{New: func() any {
	var out [2]outChunk
	for i := range out {
		out[i] = outChunk{buf: make([]byte, 0, blobCap), frames: make([][]byte, 0, 512)}
	}
	return &out
}}

// send encodes one protocol message of session id into the chunk of the
// end it leaves from: an append, no lock, no channel, no allocation. The
// frame goes out with the rest of the worker's burst (flushOut); a chunk
// with no room for it (bytes or maxBatchFrames) is shipped first, so
// nothing is dropped here. Only the worker's own goroutine may call it.
func (w *loopWorker) send(id uint64, from End, mg msg.Msg) error {
	m := w.eng.m
	if m.closed.Load() {
		return ErrClosed
	}
	frame := Frame{Session: id, Dir: from.Dir(), Msg: mg}
	// bound is a worst-case encoded size for this frame: header(2) +
	// session varint(<=10) + dir(1) + payload length varint(<=3) +
	// payload + checksum(4).
	bound := 20 + len(mg)
	if bound > blobCap {
		// The message cannot fit any chunk — put the lone frame on the
		// wire directly. Rare (a near-64KB payload), so the allocation
		// does not matter.
		if err := m.tr.Send(from, EncodeFrame(frame)); err != nil {
			return err
		}
		m.met.tx[from-1].Inc()
		return nil
	}
	ch := &w.out[from-1]
	if len(ch.frames) >= maxBatchFrames || len(ch.buf)+bound > blobCap {
		w.ship(from)
	}
	start := len(ch.buf)
	ch.buf = AppendFrame(ch.buf, frame)
	ch.frames = append(ch.frames, ch.buf[start:])
	return nil
}

// ship puts one end's pending frames on the wire in one sendFrames call —
// the one path to every transport — and empties the chunk. A session is
// pinned to this worker, so its frames leave in the order it sent them.
// Frames are counted as transmitted here, when they actually go to the
// transport. A transport that refuses the burst has closed under the mux:
// the flag makes every later send report it, and the sessions shut down.
func (w *loopWorker) ship(from End) {
	ch := &w.out[from-1]
	if len(ch.frames) == 0 {
		return
	}
	m := w.eng.m
	m.met.batchFrames.Observe(float64(len(ch.frames)))
	m.met.tx[from-1].Add(int64(len(ch.frames)))
	if err := sendFrames(m.tr, from, ch.frames); err != nil {
		m.closed.Store(true)
	}
	ch.buf, ch.frames = ch.buf[:0], ch.frames[:0]
}

// flushOut ships what the worker's sessions sent since the last call.
func (w *loopWorker) flushOut() {
	w.ship(SenderEnd)
	w.ship(ReceiverEnd)
}

// schedule queues s for service. The scheduled flag makes the queue
// idempotent: however many frames land between services, the session
// occupies at most one ready slot. Callers may race freely — the CAS
// admits exactly one enqueue per wakeup.
func (w *loopWorker) schedule(s *Session) {
	if !s.scheduled.CompareAndSwap(false, true) {
		return
	}
	w.mu.Lock()
	if w.stopped {
		// Engine shut down under the session: deliver its (incomplete)
		// report here so no Run/Serve caller hangs. The mutex serializes
		// this with the worker's own shutdown sweep.
		if !s.finished {
			w.finish(s)
		}
		w.mu.Unlock()
		return
	}
	w.ready = append(w.ready, s)
	if p := w.parked.Load(); p != awake {
		w.parked.Store(awake)
		if p == parkPrecise {
			w.pt.kick()
		} else {
			select {
			case w.notify <- struct{}{}:
			default:
			}
		}
	}
	w.mu.Unlock()
}

// turn is one round of the worker's work: swap the ready queue, service
// each session, fire the timers due at this reading, ship the frames all
// that produced. It reports whether there was anything to do.
func (w *loopWorker) turn() bool {
	w.mu.Lock()
	w.swap, w.ready = w.ready, w.swap[:0]
	w.mu.Unlock()
	progress := len(w.swap) > 0
	for i, s := range w.swap {
		w.service(s)
		w.swap[i] = nil // no stale *Session pins in the swap buffer
	}
	if len(w.timers) > 0 {
		now := w.eng.now()
		for len(w.timers) > 0 && w.timers[0].at <= now {
			e := w.timers.pop()
			w.eng.m.met.timerLag.Observe(time.Duration(now - e.at).Seconds())
			w.fire(e.s, now)
			progress = true
		}
	}
	if progress {
		w.flushOut()
	}
	return progress
}

// run is the worker loop: turn while there is work, park when idle until
// the next event or timer.
func (w *loopWorker) run() {
	defer w.eng.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		select {
		case <-w.eng.stop:
			w.shutdown()
			return
		default:
		}
		if !w.turn() {
			w.park(timer)
		}
	}
}

// park sleeps the idle worker until a schedule, its heap's earliest live
// entry or engine stop: it arms the sleep flag, re-checks the queue once
// (the Dekker handshake with schedule) and waits — on the precise timer
// for an entry due in under preciseBelow (it does not see stop, which
// costs less than that), else on a Go timer, notify and stop.
func (w *loopWorker) park(timer *time.Timer) {
	for len(w.timers) > 0 && w.timers[0].s.finished {
		w.timers.pop() // a lazily removed entry wakes no one
	}
	mode, d := parkCoarse, time.Hour
	if len(w.timers) > 0 {
		if d = time.Duration(w.timers[0].at - w.eng.now()); d <= 0 {
			return
		}
		if w.pt == nil && d < preciseBelow {
			w.pt = newPreciseTimer()
		}
		if d < preciseBelow && w.pt != nil && w.pt.arm(d) { // before the flag: a kick lands after it
			mode = parkPrecise
		}
	}
	w.parked.Store(mode)
	w.mu.Lock()
	n := len(w.ready)
	w.mu.Unlock()
	if n == 0 {
		w.eng.m.met.parks[mode-parkCoarse].Inc()
		if mode == parkPrecise {
			w.pt.wait()
		} else {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(d)
			select {
			case <-w.eng.stop:
			case <-w.notify:
			case <-timer.C:
			}
		}
	}
	w.parked.Store(awake)
}

// service runs one session's queued work: first-time attach (put off to
// the session's start instant unless it has been cancelled), pending
// cancellation, then a burst drain of both inboxes through the shared
// step machines. Clearing the scheduled flag before draining closes
// the race with a concurrent arrival's publish — a frame staged after the
// drain re-queues the session; a frame published before the clear is
// seen by this drain.
//
// Fresh sends are clocked here, by progress, not by the timer: the
// model's environment may grant a spontaneous step at any instant (paper
// §2, Property 1), so the sender fills at attach and again after each
// delivery that sent nothing but Moved it — an acknowledgement that moved
// it forward. A fill ends at the first step that sends nothing fresh, so
// a window opens whole at attach and each new acknowledgement then
// replaces the frame it retired. Only on a state change: a stale
// acknowledgement answered with a send would circulate for ever. Each
// step re-arms the backoff: the timer only times retransmission. The
// whole call is one instant: the attach, every round-trip sample, fill,
// retransmission and learnt write share one clock reading (instant), taken
// at the first event that needs it.
func (w *loopWorker) service(s *Session) {
	s.scheduled.Store(false)
	if s.finished {
		return
	}
	first, room := !s.attached, s.cfg.InboxSize
	now := int64(unread)
	if first {
		if now = w.eng.now(); s.startAt > now && !s.cancelReq.Load() {
			w.timers.push(s.startAt, s)
			return
		}
		w.attach(s)
		w.timers.push(s.nextWake(), s)
	}
	if s.cancelReq.Load() {
		w.finish(s)
		return
	}
	if s.runsSender() {
		if first && !w.fill(s, &room, now) {
			w.finish(s)
			return
		}
		w.batch = s.senderInbox.drain(w.batch)
		for _, mg := range w.batch {
			sent := s.framesTx
			if !s.senderEvent(protocol.RecvEvent(mg), &now) {
				w.finish(s)
				return
			}
			if !s.cfg.Sender.Moved() {
				continue
			}
			w.eng.instant(&now)
			if s.probeAt != noProbe {
				r := now - s.probeAt
				w.rtt.sample(r)
				s.mux.met.rtt.Observe(time.Duration(r).Seconds())
				s.probeAt = noProbe
			}
			if s.framesTx != sent {
				continue
			}
			s.bo.reset(w.rtt.rto(s.cfg.Tick))
			if !w.fill(s, &room, now) {
				w.finish(s)
				return
			}
		}
		if s.senderFinished() {
			s.complete = true
			w.finish(s)
			return
		}
	}
	if s.runsReceiver() {
		w.batch = s.receiverInbox.drain(w.batch)
		for _, mg := range w.batch {
			if s.receiverEvent(protocol.RecvEvent(mg), &now) != stepRunning {
				w.finish(s)
				return
			}
		}
	}
}

// attach begins the session's life on its worker: from here arrivals
// wake it for its frames (one published earlier woke no one; the drain
// that follows in service picks it up).
func (w *loopWorker) attach(s *Session) {
	s.attached = true
	s.mux.noteSessionStart(s)
	s.loopLive.Store(true)
}

// fill takes spontaneous steps while each puts a fresh frame on the wire
// and Moves the sender (a window fills; a stop-and-wait sender, whose tick
// does not move it, takes one step) and while *room, the frames left of
// its service call's InboxSize, lasts: the peer's inbox takes no more from
// one burst. A first step that sends one fresh frame and does not move the
// sender (stop-and-wait) opens a round-trip probe on that frame. The
// burst's steps are one instant of the model (§2, Property 1): all run at
// now, the caller's clock reading. false means the transport closed.
func (w *loopWorker) fill(s *Session, room *int, now int64) bool {
	for first := true; *room > 0; first = false {
		sent, re := s.framesTx, s.retransmits
		if !s.spontaneous(now) {
			return false
		}
		*room -= s.framesTx - sent
		moved := s.cfg.Sender.Moved()
		if first && !moved && s.framesTx == sent+1 && s.retransmits == re {
			s.probeAt = now
		}
		if !moved || s.framesTx == sent || s.retransmits != re {
			return true
		}
	}
	return true
}

// fire handles a session's timer wakeup: its start instant attaches it,
// a due crash or watchdog restarts a supervised one in place, deadline
// expiry finishes it (Complete=false — never a safety verdict), a due
// pacing tick steps the receiver and a due backoff the sender, each on its
// own; then the one live heap entry is re-armed at the next wake (a backoff
// that service moved earlier waits for this pop, never past the next
// tick: no second entry). now is the reading that popped the entry, so
// the entry's instant — nextWake — is due here too: fire finishes the
// session, or consumes a crash, or moves what was due past now, and but
// for a second crash due at this reading (the next pop's) the entry it
// pushes back is strictly later than now. That is the worker's progress
// guarantee; it holds because pop and due-check share one clock reading
// in one representation.
func (w *loopWorker) fire(s *Session, now int64) {
	if s.finished {
		return // lazily removed entry
	}
	if !s.attached {
		w.service(s)
		return
	}
	if s.cancelReq.Load() {
		w.finish(s)
		return
	}
	// A restart comes before the incarnation's deadline, so a crash due
	// together with it is a crash; the caller's deadline comes before both.
	if c := s.sup; c != nil && now < s.ctxDeadline && now >= c.wake(s) {
		w.restart(s, now)
		return
	}
	if now >= s.deadlineAt {
		w.finish(s)
		return
	}
	if now >= s.tickNext {
		if s.runsReceiver() && s.receiverEvent(protocol.TickEvent(), &now) != stepRunning {
			w.finish(s)
			return
		}
		s.tickNext = now + int64(s.cfg.Tick)
	}
	if s.runsSender() && s.bo.due(now) {
		if !s.spontaneous(now) {
			w.finish(s)
			return
		}
		if s.senderFinished() {
			s.complete = true
			w.finish(s)
			return
		}
	}
	w.timers.push(s.nextWake(), s)
}

// finish retires a session on its worker, once: close the inboxes (late
// frames count as late), drop it from the routing table, build and
// deliver the report, and fold the aggregate metrics. The session's
// timer entry, if still in the heap, is discarded lazily on pop.
func (w *loopWorker) finish(s *Session) {
	if !s.attached {
		w.attach(s) // shut down before its start instant: a zero-length life
	}
	s.finished = true
	s.loopLive.Store(false)
	s.senderInbox.close()
	s.receiverInbox.close()
	s.mux.unregister(s.cfg.ID)
	now := w.eng.now()
	rep := s.buildReport(time.Duration(max(0, now-s.startAt)))
	if c := s.sup; c != nil {
		rep.Chaos = c.conclude(s, now)
	}
	s.mux.noteSessionEnd(s, rep)
	s.onDone(s, rep)
}

// shutdown finishes every session still owned by this worker — queued,
// attached, or both — under the mutex, so a racing schedule on another
// goroutine either hands its session to this sweep or finishes it
// itself, never both, nor kicks a closed precise timer. Then it ships
// whatever is still pending (the mux closes the transport only after its
// workers have stopped) and returns the cleared chunks to the pool.
func (w *loopWorker) shutdown() {
	w.mu.Lock()
	w.stopped = true
	if w.pt != nil {
		w.pt.close()
		w.pt = nil
	}
	for _, s := range w.ready {
		if !s.finished {
			w.finish(s)
		}
	}
	w.ready = nil
	for len(w.timers) > 0 {
		e := w.timers.pop()
		if !e.s.finished {
			w.finish(e.s)
		}
	}
	w.mu.Unlock()
	w.flushOut() // leaves both chunks empty
	chunkPool.Put(w.out)
	w.out = nil
}
