package wire

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"seqtx/internal/msg"
	"seqtx/internal/obs"
)

// Mux multiplexes many sessions over one Transport: it encodes outbound
// protocol messages into frames, decodes and stages inbound frames into the
// owning session's inbox, and drops (with a counted cause) anything that
// does not parse, does not belong to a live session, or falls outside the
// session's declared alphabet — the live analogue of the Link's alphabet
// enforcement.
//
// The hot paths are built to scale with session count on one transport:
// the session table is a dense direct-index array (registration, lookup,
// and removal are O(1) — the property that lets a million sessions come
// and go; ids are bounded by MaxSessionID), and session execution is
// owned by the event-loop worker pool (engine.go), each worker putting
// the frames its own service burst produced on the wire in one
// writev-style call (sendFrames). Frames come in through arrive, on the
// goroutine that holds them (over Inproc, the shipping worker): only a
// transport that does not push gets two router goroutines.
type Mux struct {
	tr  Transport
	met *muxMetrics

	loop        *loopEngine
	sampleEvery uint64

	// dense is the direct-index session table: lookup is a bounds check
	// plus two atomic loads, registration a slot store (amortized over
	// rare doublings). denseMu serializes writers; readers go through the
	// atomic pointers only.
	denseMu sync.Mutex
	dense   atomic.Pointer[[]atomic.Pointer[Session]]

	// closed is set by the first sendFrames the transport refuses; from
	// then on every send returns ErrClosed and the sessions finish.
	closed atomic.Bool

	arr      [2]arrival // indexed End-1
	routerWg sync.WaitGroup
}

// MuxConfig tunes a mux beyond its transport and metrics sink.
type MuxConfig struct {
	// Obs receives the wire metrics and events (nil = no-op sink).
	Obs *obs.Registry
	// EventSampleEvery emits the per-session lifecycle events
	// (wire.session.start / wire.session.end and the supervisor's crash
	// and watchdog events) for one session in every EventSampleEvery;
	// 0 or 1 emits for all. Aggregate counters stay exact regardless —
	// only the bounded event ring is sampled, so a million sessions do
	// not scroll it into noise. Safety-violation events are never
	// sampled away.
	EventSampleEvery uint64
}

// MaxSessionID bounds session ids: the direct-index table grows to at
// most 1<<22 slots (~4.2M, comfortably past the million-session target).
// NewSession rejects an id at or past it, and inbound frames naming one
// count as unknown_session.
const MaxSessionID = uint64(1) << 22

const (
	// denseSeed is the session table's initial capacity; it doubles as
	// needed.
	denseSeed = 1024
	// fibMul is the 64-bit Fibonacci hashing multiplier: sequential
	// session ids (the common case) spread uniformly over loop workers.
	fibMul = 0x9E3779B97F4A7C15
)

// muxMetrics bundles the obs handles, resolved once at mux creation (the
// nil-registry fast path makes every update a no-op).
type muxMetrics struct {
	// tx counts the frames shipped from an end, rx the frames that
	// arrived at one; both indexed End-1.
	tx, rx       [2]*obs.Counter
	decodeErrors *obs.Counter
	alien        *obs.Counter
	unknown      *obs.Counter
	inboxFull    *obs.Counter
	batchFrames  *obs.Histogram

	active        *obs.Gauge
	completed     *obs.Counter
	unfinished    *obs.Counter
	violations    *obs.Counter
	retransmits   *obs.Counter
	retransmitIvl *obs.Histogram
	rtt           *obs.Histogram
	timerLag      *obs.Histogram
	parks         [2]*obs.Counter // coarse, precise
	goodput       *obs.Histogram
	learn         *obs.Histogram

	// wire_stabilize_*: the supervised-session (chaos) metrics — see
	// supervisor.go for the crash-restart and stabilization semantics.
	stabIncarnations *obs.Counter
	stabBadWrites    *obs.Counter
	stabPostViol     *obs.Counter
	stabEscalations  *obs.Counter
	stabTime         *obs.Histogram

	reg *obs.Registry
}

// GoodputBuckets is the bucket ladder for per-session goodput
// (items/second): live sessions pace in milliseconds, so the ladder spans
// sub-1 to tens of thousands of items per second.
var GoodputBuckets = obs.ExpBuckets(0.5, 2, 16)

func newMuxMetrics(reg *obs.Registry) *muxMetrics {
	return &muxMetrics{
		tx: [2]*obs.Counter{
			reg.Counter(`wire_frames_tx_total{dir="s_to_r"}`),
			reg.Counter(`wire_frames_tx_total{dir="r_to_s"}`),
		},
		rx: [2]*obs.Counter{ // what arrives at the sender end travelled R→S
			reg.Counter(`wire_frames_rx_total{dir="r_to_s"}`),
			reg.Counter(`wire_frames_rx_total{dir="s_to_r"}`),
		},
		decodeErrors: reg.Counter("wire_decode_errors_total"),
		alien:        reg.Counter(`wire_frames_dropped_total{cause="alien"}`),
		unknown:      reg.Counter(`wire_frames_dropped_total{cause="unknown_session"}`),
		inboxFull:    reg.Counter(`wire_frames_dropped_total{cause="inbox_full"}`),
		batchFrames:  reg.Histogram("wire_batch_frames", obs.BatchBuckets),
		active:       reg.Gauge("wire_sessions_active"),
		completed:    reg.Counter("wire_sessions_completed_total"),
		unfinished:   reg.Counter("wire_sessions_unfinished_total"),
		violations:   reg.Counter("wire_safety_violations_total"),
		retransmits:  reg.Counter("wire_retransmits_total"),
		retransmitIvl: reg.Histogram("wire_retransmit_interval_seconds",
			obs.DurationBuckets),
		rtt:      reg.Histogram("wire_rtt_seconds", obs.MicroBuckets),
		timerLag: reg.Histogram("wire_timer_lag_seconds", obs.MicroBuckets),
		parks: [2]*obs.Counter{
			reg.Counter(`wire_worker_parks_total{park="coarse"}`),
			reg.Counter(`wire_worker_parks_total{park="precise"}`),
		},
		goodput:          reg.Histogram("wire_session_goodput_items_per_sec", GoodputBuckets),
		learn:            reg.Histogram("wire_session_learn_time_seconds", obs.DurationBuckets),
		stabIncarnations: reg.Counter("wire_stabilize_incarnations_total"),
		stabBadWrites:    reg.Counter("wire_stabilize_bad_writes_total"),
		stabPostViol:     reg.Counter("wire_stabilize_post_violations_total"),
		stabEscalations:  reg.Counter("wire_stabilize_watchdog_escalations_total"),
		stabTime:         reg.Histogram("wire_stabilize_time_seconds", obs.DurationBuckets),
		reg:              reg,
	}
}

// sessionStarted / sessionEnded maintain the active-session gauge, each
// in one atomic step.
func (m *muxMetrics) sessionStarted() { m.active.Add(1) }
func (m *muxMetrics) sessionEnded()   { m.active.Add(-1) }

// NewMuxConfig builds a mux over tr per cfg and starts the event-loop
// workers, and two routers if tr does not push.
func NewMuxConfig(tr Transport, cfg MuxConfig) *Mux {
	m := newMux(tr, cfg, false)
	if !m.push() {
		m.routerWg.Add(2)
		go m.route(SenderEnd)
		go m.route(ReceiverEnd)
	}
	for _, w := range m.loop.workers {
		m.loop.wg.Add(1)
		go w.run()
	}
	return m
}

// newMux builds a mux and starts nothing. With manual set its engine is a
// manual one (loopEngine) and the transport is not attached: the caller
// turns the one worker and attaches it (push) or calls arrive itself.
func newMux(tr Transport, cfg MuxConfig, manual bool) *Mux {
	m := &Mux{
		tr:          tr,
		met:         newMuxMetrics(cfg.Obs),
		sampleEvery: cfg.EventSampleEvery,
		arr:         [2]arrival{{dirty: make([]*inbox, 0, 64)}, {dirty: make([]*inbox, 0, 64)}},
	}
	m.loop = newLoopEngine(m, manual)
	return m
}

// sampled reports whether per-session lifecycle events should be
// emitted for this session id (see MuxConfig.EventSampleEvery). Never
// into the nil sink: the caller would format the event's fields (an
// allocation for any id past 99) only for Emit to drop them.
func (m *Mux) sampled(id uint64) bool {
	return m.met.reg != nil && (m.sampleEvery <= 1 || id%m.sampleEvery == 0)
}

// noteSessionStart folds a session start into the metrics and, when the
// id is sampled, the event ring.
func (m *Mux) noteSessionStart(s *Session) {
	m.met.sessionStarted()
	if m.sampled(s.cfg.ID) {
		m.met.reg.Emit("wire.session.start",
			"session", strconv.FormatUint(s.cfg.ID, 10),
			"items", strconv.Itoa(len(s.cfg.Input)))
	}
}

// noteSessionEnd folds a finished session's outcome into the aggregate
// metrics (always exact) and, when the id is sampled, the event ring.
func (m *Mux) noteSessionEnd(s *Session, rep Report) {
	met := m.met
	met.retransmits.Add(int64(s.retransmits))
	for _, t := range s.learnTimes {
		met.learn.Observe(t.Seconds())
	}
	met.goodput.Observe(rep.GoodputItemsPerSec)
	switch {
	case rep.SafetyViolation != nil:
		// counted when detected, in noteViolation
	case rep.Complete:
		met.completed.Inc()
	default:
		met.unfinished.Inc()
	}
	if c := rep.Chaos; c != nil {
		met.stabIncarnations.Add(int64(len(c.Incarnations)))
		met.stabEscalations.Add(int64(c.WatchdogEscalations))
		met.stabBadWrites.Add(int64(c.BadWrites))
		met.stabPostViol.Add(int64(c.PostStabViolations))
		for _, t := range c.StabilizeTimes {
			met.stabTime.Observe(t.Seconds())
		}
	}
	if m.sampled(s.cfg.ID) {
		met.reg.Emit("wire.session.end",
			"session", strconv.FormatUint(s.cfg.ID, 10),
			"complete", strconv.FormatBool(rep.Complete),
			"frames_tx", strconv.Itoa(rep.FramesTx))
	}
	met.sessionEnded()
}

// noteViolation records a prefix-safety violation. Violations are never
// sampled away: each one is a counter increment and, under a live sink,
// an event.
func (m *Mux) noteViolation(s *Session) {
	m.met.violations.Inc()
	if m.met.reg != nil {
		m.met.reg.Emit("wire.safety.violation",
			"session", strconv.FormatUint(s.cfg.ID, 10),
			"output", s.output.String())
	}
}

// register adds a session to the routing table: a slot store, which is
// what keeps registering a million sessions linear.
func (m *Mux) register(s *Session) error {
	id := s.cfg.ID
	if id >= MaxSessionID {
		return fmt.Errorf("wire: session id %d out of range (ids must be below %d)", id, MaxSessionID)
	}
	m.denseMu.Lock()
	defer m.denseMu.Unlock()
	tbl := m.dense.Load()
	if tbl == nil || uint64(len(*tbl)) <= id {
		n := uint64(denseSeed)
		if tbl != nil {
			n = uint64(len(*tbl))
		}
		for n <= id {
			n <<= 1
		}
		next := make([]atomic.Pointer[Session], n)
		if tbl != nil {
			// Slot-by-slot atomic copy: concurrent lookups read the
			// old table until the pointer swap publishes the new one.
			for i := range *tbl {
				next[i].Store((*tbl)[i].Load())
			}
		}
		m.dense.Store(&next)
		tbl = &next
	}
	if (*tbl)[id].Load() != nil {
		return fmt.Errorf("wire: duplicate session id %d", id)
	}
	(*tbl)[id].Store(s)
	return nil
}

// unregister removes a finished session; late frames for it count as
// unknown-session drops.
func (m *Mux) unregister(id uint64) {
	m.denseMu.Lock()
	defer m.denseMu.Unlock()
	if tbl := m.dense.Load(); tbl != nil && id < uint64(len(*tbl)) {
		(*tbl)[id].Store(nil)
	}
}

// lookup finds a live session: a bounds check plus two atomic loads.
func (m *Mux) lookup(id uint64) *Session {
	if tbl := m.dense.Load(); tbl != nil && id < uint64(len(*tbl)) {
		return (*tbl)[id].Load()
	}
	return nil
}

// arrival is one end's way in: its lock makes the holder the one producer
// of every inbox at that end. Lock order: an arrival lock, then worker.mu
// (flush's schedule); no worker ships holding its own mu, so nothing takes
// them the other way.
type arrival struct {
	mu                                        sync.Mutex
	v                                         FrameView
	dirty                                     []*inbox
	rx, decodeErrs, alien, unknown, inboxFull int64
}

// arrive is the one way a frame enters a session: each blob — a bare frame
// or a batch — is split, decoded in place, validated and staged into the
// owning session's inbox; then each dirty inbox is published once and its
// session readied once. The bytes are only borrowed (a payload is interned
// or copied), so a transport may pass views of a chunk or a read buffer.
func (m *Mux) arrive(at End, blobs ...[]byte) {
	a := &m.arr[at-1]
	a.mu.Lock()
	wantDir := at.Opposite().Dir() // frames arriving here were sent by the opposite end
	stage := func(frame []byte) error {
		v := &a.v
		if err := DecodeFrameInto(v, frame); err != nil {
			a.decodeErrs++
			return nil
		}
		if v.Dir != wantDir {
			a.alien++
			return nil
		}
		s := m.lookup(v.Session)
		if s == nil {
			a.unknown++
			return nil
		}
		// Alphabet enforcement, on receive because the wire may have swapped
		// payloads after the honest send (Link.Send's M^S/M^R check, live):
		// Alphabet.Canonical interns an in-alphabet payload without
		// allocating, and a one-entry cache makes a repeat (retransmissions,
		// the dominant STP traffic) a byte compare.
		alp := s.receiverAlphabet
		q := &s.senderInbox
		ce := &s.rxCache[1]
		if at == ReceiverEnd {
			alp = s.senderAlphabet
			q = &s.receiverInbox
			ce = &s.rxCache[0]
		}
		mg := ce.mg
		if !ce.set || string(v.Payload) != string(mg) {
			if alp.Size() > 0 {
				var ok bool
				if mg, ok = alp.Canonical(v.Payload); !ok {
					a.alien++
					return nil
				}
			} else {
				mg = msg.Msg(v.Payload) // copies: the payload is borrowed
			}
			ce.mg, ce.set = mg, true
		}
		switch q.stage(mg) {
		case pushOK:
			a.rx++
			if !q.dirty {
				q.dirty = true
				a.dirty = append(a.dirty, q)
			}
		case pushClosed:
			// Session finished while we held the frame: count it as late.
			a.unknown++
		default:
			a.inboxFull++
			s.inboxDrops.Add(1)
		}
		return nil
	}
	for _, b := range blobs {
		if !IsBatch(b) {
			stage(b)
		} else if err := SplitBatch(b, stage); err != nil {
			a.decodeErrs++
		}
	}
	a.flush(m, at)
	a.mu.Unlock()
}

// flush publishes the dirty inboxes, wakes their sessions' workers, and
// folds the tallies into the metrics of end at.
func (a *arrival) flush(m *Mux, at End) {
	for i, q := range a.dirty {
		q.publish()
		if o := q.owner; o.loopLive.Load() {
			o.worker.schedule(o)
		}
		a.dirty[i] = nil
	}
	a.dirty = a.dirty[:0]
	if a.rx > 0 {
		m.met.rx[at-1].Add(a.rx)
	}
	if a.decodeErrs > 0 {
		m.met.decodeErrors.Add(a.decodeErrs)
	}
	if a.alien > 0 {
		m.met.alien.Add(a.alien)
	}
	if a.unknown > 0 {
		m.met.unknown.Add(a.unknown)
	}
	if a.inboxFull > 0 {
		m.met.inboxFull.Add(a.inboxFull)
	}
	a.rx, a.decodeErrs, a.alien, a.unknown, a.inboxFull = 0, 0, 0, 0, 0
}

// pusher is a transport that, once pushTo hands it the mux, calls arrive on
// the goroutine holding the frames instead of queueing them for Recv (what
// reached Recv before is lost, as a link may lose it).
type pusher interface{ pushTo(m *Mux) bool }

// push attaches the mux to its transport, if that pushes.
func (m *Mux) push() bool {
	p, ok := m.tr.(pusher)
	return ok && p.pushTo(m)
}

// route pumps a transport that does not push: one goroutine per end hands
// each blob from Recv to arrive, until the channel closes.
func (m *Mux) route(at End) {
	defer m.routerWg.Done()
	for raw := range m.tr.Recv(at) {
		m.arrive(at, raw)
		ReleaseBuf(raw)
	}
}

// Close stops the engine — the loop workers finish any still-attached
// sessions, so no Run or Serve caller hangs, and ship what they appended
// — then closes the transport and waits for any routers to drain. In that
// order, so a finishing session's last frames (a receiver half's final
// acknowledgement, which its remote sender needs to be Done) are on the
// wire before the transport goes; an arrival that outlives its session's
// worker is schedule's stopped branch.
func (m *Mux) Close() error {
	m.loop.close()
	err := m.tr.Close()
	m.routerWg.Wait()
	return err
}
