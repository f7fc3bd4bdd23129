package wire

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/obs"
)

// Mux multiplexes many sessions over one Transport: it encodes outbound
// protocol messages into frames, decodes and routes inbound frames to the
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
// writev-style call (sendFrames) — the mux has no goroutine between a
// Step and the transport.
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

	activeN       atomic.Int64
	active        *obs.Gauge
	completed     *obs.Counter
	unfinished    *obs.Counter
	violations    *obs.Counter
	retransmits   *obs.Counter
	retransmitIvl *obs.Histogram
	rtt           *obs.Histogram
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
		rtt:              reg.Histogram("wire_rtt_seconds", obs.DurationBuckets),
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

// sessionStarted / sessionEnded maintain the active-session gauge.
func (m *muxMetrics) sessionStarted() { m.active.Set(float64(m.activeN.Add(1))) }
func (m *muxMetrics) sessionEnded()   { m.active.Set(float64(m.activeN.Add(-1))) }

// NewMux builds a mux over tr with default configuration (unsampled
// events) and starts its goroutines. reg may be
// nil (the obs nil-sink).
func NewMux(tr Transport, reg *obs.Registry) *Mux {
	return NewMuxConfig(tr, MuxConfig{Obs: reg})
}

// NewMuxConfig builds a mux over tr per cfg and starts its two router
// goroutines and the event-loop workers.
func NewMuxConfig(tr Transport, cfg MuxConfig) *Mux {
	m := newMux(tr, cfg, false)
	m.loop.spawn()
	m.routerWg.Add(2)
	go m.route(SenderEnd)
	go m.route(ReceiverEnd)
	return m
}

// newMux builds a mux and starts nothing. With manual set its engine is a
// manual one (loopEngine) and no router reads the transport: the caller
// turns the one worker and hands frames to dispatch itself.
func newMux(tr Transport, cfg MuxConfig, manual bool) *Mux {
	m := &Mux{
		tr:          tr,
		met:         newMuxMetrics(cfg.Obs),
		sampleEvery: cfg.EventSampleEvery,
	}
	m.loop = newLoopEngine(m, manual)
	return m
}

// sampled reports whether per-session lifecycle events should be
// emitted for this session id (see MuxConfig.EventSampleEvery).
func (m *Mux) sampled(id uint64) bool {
	return m.sampleEvery <= 1 || id%m.sampleEvery == 0
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
// sampled away: each one is a counter increment and an event.
func (m *Mux) noteViolation(s *Session) {
	m.met.violations.Inc()
	m.met.reg.Emit("wire.safety.violation",
		"session", strconv.FormatUint(s.cfg.ID, 10),
		"output", s.output.String())
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

// routeSink accumulates one router's per-frame effects across a blob so
// the hot loop touches no shared counters and publishes each inbox once:
// plain local increments per frame, then one flush per blob (atomic
// counter Adds for the non-zero tallies, one tail publish per dirty
// inbox, one ready-queue schedule per dirty live session).
type routeSink struct {
	dirty                                     []*inbox
	rx, decodeErrs, alien, unknown, inboxFull int64
}

// flush publishes the dirty inboxes, wakes their sessions' workers,
// and folds the tallies into the mux metrics; at is the end the frames
// arrived at.
func (k *routeSink) flush(m *Mux, at End) {
	for i, q := range k.dirty {
		q.publish()
		if o := q.owner; o.loopLive.Load() {
			o.worker.schedule(o)
		}
		k.dirty[i] = nil
	}
	k.dirty = k.dirty[:0]
	if k.rx > 0 {
		m.met.rx[at-1].Add(k.rx)
	}
	if k.decodeErrs > 0 {
		m.met.decodeErrors.Add(k.decodeErrs)
	}
	if k.alien > 0 {
		m.met.alien.Add(k.alien)
	}
	if k.unknown > 0 {
		m.met.unknown.Add(k.unknown)
	}
	if k.inboxFull > 0 {
		m.met.inboxFull.Add(k.inboxFull)
	}
	k.rx, k.decodeErrs, k.alien, k.unknown, k.inboxFull = 0, 0, 0, 0, 0
}

// route is one end's router goroutine: split batch blobs, decode each
// frame in place, validate, dispatch. It exits when the transport's Recv
// channel closes.
func (m *Mux) route(at End) {
	defer m.routerWg.Done()
	wantDir := at.Opposite().Dir() // frames arriving here were sent by the opposite end
	var v FrameView
	sink := &routeSink{dirty: make([]*inbox, 0, 64)}
	dispatch := func(frame []byte) error {
		m.dispatch(at, wantDir, sink, frame, &v)
		return nil
	}
	for raw := range m.tr.Recv(at) {
		if IsBatch(raw) {
			if err := SplitBatch(raw, dispatch); err != nil {
				sink.decodeErrs++
			}
		} else {
			m.dispatch(at, wantDir, sink, raw, &v)
		}
		sink.flush(m, at)
		ReleaseBuf(raw)
	}
}

// dispatch validates one encoded frame and stages its message into the
// owning session's inbox (the router publishes staged inboxes once per
// blob via the sink). The frame bytes are only borrowed: the payload is
// either canonicalized against the session's alphabet (interned, no
// copy) or copied into an owned Msg before the buffer goes back to the
// pool.
func (m *Mux) dispatch(at End, wantDir channel.Dir, sink *routeSink, frame []byte, v *FrameView) {
	if err := DecodeFrameInto(v, frame); err != nil {
		sink.decodeErrs++
		return
	}
	if v.Dir != wantDir {
		sink.alien++
		return
	}
	s := m.lookup(v.Session)
	if s == nil {
		sink.unknown++
		return
	}
	// Alphabet enforcement: a frame whose payload is outside the session's
	// declared alphabet for this direction is alien — the live analogue of
	// Link.Send's M^S/M^R check, applied on receive because the wire
	// (impairment, another session's corruption substitute) may have
	// swapped payloads after the honest send. Membership is checked with
	// Alphabet.Canonical, which doubles as interning: an in-alphabet
	// payload becomes an owned Msg without allocating. A one-entry cache
	// in front of it makes back-to-back repeats (retransmissions, the
	// dominant STP traffic) a plain byte compare.
	alp := s.receiverAlphabet
	q := &s.senderInbox
	ce := &s.rxCache[1]
	if at == ReceiverEnd {
		alp = s.senderAlphabet
		q = &s.receiverInbox
		ce = &s.rxCache[0]
	}
	var mg msg.Msg
	if len(ce.raw) > 0 && bytes.Equal(ce.raw, v.Payload) {
		mg = ce.mg
	} else {
		if alp.Size() > 0 {
			var ok bool
			if mg, ok = alp.Canonical(v.Payload); !ok {
				sink.alien++
				return
			}
		} else {
			mg = msg.Msg(v.Payload) // copies: the payload aliases a pooled buffer
		}
		ce.raw = append(ce.raw[:0], v.Payload...)
		ce.mg = mg
	}
	switch q.stage(mg) {
	case pushOK:
		sink.rx++
		if !q.dirty {
			q.dirty = true
			sink.dirty = append(sink.dirty, q)
		}
	case pushClosed:
		// Session finished while we held the frame: count it as late.
		sink.unknown++
	default:
		sink.inboxFull++
		s.inboxDrops.Add(1)
	}
}

// Close stops the engine — the loop workers finish any still-attached
// sessions, so no Run or Serve caller hangs, and ship what they appended
// — then closes the transport and waits for the routers to drain. In that
// order, so a finishing session's last frames (a receiver half's final
// acknowledgement, which its remote sender needs to be Done) are on the
// wire before the transport goes; a router that outlives its session's
// worker is schedule's stopped branch.
func (m *Mux) Close() error {
	m.loop.close()
	err := m.tr.Close()
	m.routerWg.Wait()
	return err
}
