package wire

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"seqtx/internal/chanmodel"
	"seqtx/internal/channel"
	"seqtx/internal/faults"
	"seqtx/internal/obs"
)

// Options configures an Impairment: the declarative fault windows shared
// with the lock-step scheduler (faults.Spec), plus the two wire-native
// impairments that in the sim are channel-kind semantics rather than plan
// faults — duplication and reordering.
//
// Window positions in the Spec are counted in frames handled per
// direction within a lock shard (sessions are striped over shards; the
// single-stream case is exactly the old global count): the burst-drop
// preset that drops scheduler steps 10..50 drops the 10th..49th frame
// offered on that direction here.
type Options struct {
	// Spec supplies burst-drop, partition-heal, and corruption windows.
	// Specs with process faults (crash-restarts) are rejected: a link
	// cannot reset a remote process's state.
	Spec faults.Spec
	// DupEveryN, when > 0, delivers every Nth S→R frame twice — the live
	// counterpart of the dup channel's replay freedom.
	DupEveryN int
	// ReorderEveryN, when > 0, holds every Nth S→R frame back until one
	// more frame has passed it — a pairwise reordering.
	ReorderEveryN int
	// Model, when non-nil, applies a quantitative channel model to the
	// S→R direction: one seeded schedule decision per offered frame
	// (pass / drop / duplicate), ahead of the preset pipeline. See
	// model.go and internal/chanmodel.
	Model chanmodel.Model
	// ModelSeed seeds the model's decision schedule.
	ModelSeed int64
	// RecordModel, when > 0, keeps the first that many realized model
	// decisions for Impairment.ModelRealized (cross-realization tests).
	RecordModel int
}

// active reports whether any impairment is configured at all; when not,
// the layer is a pure passthrough and the hot path skips its locks.
func (o Options) active() bool {
	return len(o.Spec.Bursts) > 0 || len(o.Spec.Partitions) > 0 ||
		len(o.Spec.Corruptions) > 0 || o.DupEveryN > 0 || o.ReorderEveryN > 0
}

// ImpairName returns the display name of the configured impairment: the fault
// spec's preset name, the model spec, or "none".
func (o Options) ImpairName() string {
	switch {
	case o.Spec.Name != "":
		return o.Spec.Name
	case o.Model != nil:
		return o.Model.Spec()
	default:
		return "none"
	}
}

// ImpairPreset returns the named impairment options. The menu is the
// faults presets that make sense on a link (none, burst-drop,
// partition-heal, corrupt) plus the wire-native "dup-replay" and
// "reorder".
func ImpairPreset(name string) (Options, error) {
	switch name {
	case "dup-replay":
		return Options{Spec: faults.Spec{Name: "dup-replay"}, DupEveryN: 4}, nil
	case "reorder":
		return Options{Spec: faults.Spec{Name: "reorder"}, ReorderEveryN: 3}, nil
	}
	s, err := faults.PresetSpec(name)
	if err != nil {
		return Options{}, fmt.Errorf("wire: unknown impairment %q (have %s)",
			name, strings.Join(ImpairPresetNames(), ", "))
	}
	if s.ProcessFaults() {
		return Options{}, fmt.Errorf(
			"wire: preset %q injects process faults (crash-restart), which belong to the session supervisor, not the link — pass it via -crash-preset (wire.ServeConfig.Chaos) instead; link impairments are %s",
			name, strings.Join(ImpairPresetNames(), ", "))
	}
	return Options{Spec: s}, nil
}

// ImpairPresetNames lists the valid impairment preset names, sorted.
func ImpairPresetNames() []string {
	names := []string{"dup-replay", "reorder"}
	for _, n := range faults.PresetNames() {
		if s, err := faults.PresetSpec(n); err == nil && !s.ProcessFaults() {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// heldFrame is a partition-delayed frame: released once the direction's
// frame count passes release. The bytes live in a pooled buffer owned by
// the impairment until the frame is forwarded.
type heldFrame struct {
	release int
	frame   []byte
}

// dirState is the per-shard, per-direction impairment state.
type dirState struct {
	count   int    // frames offered on this direction so far
	prev    []byte // last frame actually sent (corruption substitute), reused
	held    []heldFrame
	pending []byte // reorder slot: goes out after the next frame
}

// impairShardBits/impairShards size the lock striping: sessions hash onto
// shards, so 64+ concurrent sessions spread over independent mutexes
// instead of serializing on one.
const (
	impairShardBits = 4
	impairShards    = 1 << impairShardBits
)

// impairShard is one lock stripe: its own mutex and per-direction state.
// Fault windows are counted within the stripe; a single session (and
// every frame that does not parse as a frame) always lands on the same
// stripe, so single-stream behavior is identical to a global count.
type impairShard struct {
	mu   sync.Mutex
	dirs [2]dirState // indexed dir-1 (SToR, RToS)
}

// Impairment wraps a Transport and replays fault windows against its
// Send path. Frames travelling SenderEnd→ReceiverEnd are the S→R half,
// the reverse the R→S half, exactly as in the sim's Link. Recv passes
// through untouched (faults live on the wire, not in the receiver).
// Batched sends are impaired frame-by-frame — a batch is only an ordered
// burst, and every frame in it meets the same window logic a lone frame
// would (DESIGN.md §9).
type Impairment struct {
	inner       Transport
	opts        Options
	passthrough bool
	stage       *modelStage // non-nil when Options.Model is set

	shards [impairShards]impairShard

	dropped   *obs.Counter
	heldTotal *obs.Counter
	corrupted *obs.Counter
	duped     *obs.Counter
	reordered *obs.Counter
}

var _ Transport = (*Impairment)(nil)
var _ BatchSender = (*Impairment)(nil)

// NewImpairment wraps inner with the given options. reg (which may be
// nil) receives the impairment counters.
func NewImpairment(inner Transport, o Options, reg *obs.Registry) (*Impairment, error) {
	if o.Spec.ProcessFaults() {
		return nil, fmt.Errorf(
			"wire: fault spec %q injects process faults, which belong to the session supervisor (wire.ServeConfig.Chaos / -crash-preset), not the link",
			o.Spec.Name)
	}
	var stage *modelStage
	if o.Model != nil {
		stage = newModelStage(o.Model, o.ModelSeed, o.RecordModel, reg)
	}
	return &Impairment{
		inner:       inner,
		opts:        o,
		passthrough: !o.active(),
		stage:       stage,
		dropped:     reg.Counter(`wire_frames_dropped_total{cause="impair"}`),
		heldTotal:   reg.Counter("wire_frames_held_total"),
		corrupted:   reg.Counter("wire_frames_corrupted_total"),
		duped:       reg.Counter("wire_frames_dup_total"),
		reordered:   reg.Counter("wire_frames_reordered_total"),
	}, nil
}

// Name implements Transport.
func (im *Impairment) Name() string {
	return im.inner.Name() + "+" + im.opts.ImpairName()
}

// Recv implements Transport (pass-through).
func (im *Impairment) Recv(at End) <-chan []byte { return im.inner.Recv(at) }

// pushTo implements pusher by forwarding. A reorder or partition release
// then arrives on the worker whose frame released it, not its own.
func (im *Impairment) pushTo(m *Mux) bool {
	p, ok := im.inner.(pusher)
	return ok && p.pushTo(m)
}

// shardFor picks the lock stripe for a frame by its session id
// (Fibonacci-hashed); anything that does not parse shards together.
func (im *Impairment) shardFor(frame []byte) *impairShard {
	id, ok := PeekFrameSession(frame)
	if !ok {
		return &im.shards[0]
	}
	return &im.shards[(id*0x9E3779B97F4A7C15)>>(64-impairShardBits)]
}

// Close implements Transport: releases every still-held frame (a
// partition heals at shutdown rather than swallowing messages — the
// model's partitions delay, never delete), then closes the inner
// transport.
func (im *Impairment) Close() error {
	for s := range im.shards {
		sh := &im.shards[s]
		sh.mu.Lock()
		for _, end := range []End{SenderEnd, ReceiverEnd} {
			st := &sh.dirs[end.Dir()-1]
			for _, h := range st.held {
				im.inner.Send(end, h.frame)
				putBuf(h.frame)
			}
			st.held = nil
			if st.pending != nil {
				im.inner.Send(end, st.pending)
				putBuf(st.pending)
				st.pending = nil
			}
		}
		sh.mu.Unlock()
	}
	return im.inner.Close()
}

// impairScratch accumulates one offered burst's surviving frames: views
// into caller-owned frames, into scratch (substituted bytes), or into
// impairment-owned pooled buffers queued for release after the flush.
type impairScratch struct {
	frames [][]byte // surviving frames to forward, in order
	free   [][]byte // pooled buffers to release once forwarded
	buf    []byte   // copies of substituted (prev) bytes
}

var impairScratchPool = sync.Pool{New: func() any { return &impairScratch{} }}

func getImpairScratch() *impairScratch { return impairScratchPool.Get().(*impairScratch) }

func releaseImpairScratch(sc *impairScratch) {
	for _, b := range sc.free {
		putBuf(b)
	}
	for i := range sc.frames {
		sc.frames[i] = nil
	}
	for i := range sc.free {
		sc.free[i] = nil
	}
	sc.frames, sc.free, sc.buf = sc.frames[:0], sc.free[:0], sc.buf[:0]
	impairScratchPool.Put(sc)
}

// copyIn copies b into the scratch and returns the stable view. Growth
// reallocations keep earlier views valid (they pin the old array).
func (sc *impairScratch) copyIn(b []byte) []byte {
	start := len(sc.buf)
	sc.buf = append(sc.buf, b...)
	return sc.buf[start:]
}

// Send implements Transport: the model stage first decides how many
// copies of the frame enter the wire (1 without a model); each copy then
// runs the preset pipeline — partition release, partition hold, burst
// drop, corruption substitution, reordering, duplication — and what
// survives is forwarded to the inner transport frame-by-frame.
func (im *Impairment) Send(from End, frame []byte) error {
	for copies := im.modelCopies(from); copies > 0; copies-- {
		if err := im.sendOne(from, frame); err != nil {
			return err
		}
	}
	return nil
}

func (im *Impairment) sendOne(from End, frame []byte) error {
	if im.passthrough {
		return im.inner.Send(from, frame)
	}
	sc := getImpairScratch()
	defer releaseImpairScratch(sc)
	dir := from.Dir()
	sh := im.shardFor(frame)
	sh.mu.Lock()
	im.applyLocked(&sh.dirs[dir-1], dir, frame, sc)
	sh.mu.Unlock()
	for _, f := range sc.frames {
		if err := im.inner.Send(from, f); err != nil {
			return err
		}
	}
	return nil
}

// SendBatch implements BatchSender: every frame in the burst goes through
// the same per-frame impairment logic as a lone Send, and the survivors
// are forwarded as one burst on the inner transport.
func (im *Impairment) SendBatch(from End, frames [][]byte) error {
	if im.passthrough && im.stage == nil {
		return sendFrames(im.inner, from, frames)
	}
	sc := getImpairScratch()
	defer releaseImpairScratch(sc)
	dir := from.Dir()
	for _, frame := range frames {
		for copies := im.modelCopies(from); copies > 0; copies-- {
			if im.passthrough {
				sc.frames = append(sc.frames, frame)
				continue
			}
			sh := im.shardFor(frame)
			sh.mu.Lock()
			im.applyLocked(&sh.dirs[dir-1], dir, frame, sc)
			sh.mu.Unlock()
		}
	}
	if len(sc.frames) == 0 {
		return nil
	}
	return sendFrames(im.inner, from, sc.frames)
}

// applyLocked runs one offered frame through the impairment pipeline
// under its shard lock, appending the frames to put on the wire (in
// order) to sc. Emitted bytes alias either the caller's frame, sc's
// scratch, or pooled buffers queued on sc.free — all stable until the
// caller forwards and releases sc.
func (im *Impairment) applyLocked(st *dirState, dir channel.Dir, frame []byte, sc *impairScratch) {
	n := st.count
	st.count++

	// Heal: flush held frames whose window has passed.
	if len(st.held) > 0 {
		kept := st.held[:0]
		for _, h := range st.held {
			if h.release <= n {
				sc.frames = append(sc.frames, h.frame)
				sc.free = append(sc.free, h.frame)
			} else {
				kept = append(kept, h)
			}
		}
		st.held = kept
	}

	// Partition: delay the frame until the window ends.
	if release, blocked := im.partitioned(dir, n); blocked {
		cp := append(getBuf(len(frame)), frame...)
		st.held = append(st.held, heldFrame{release: release, frame: cp})
		im.heldTotal.Inc()
		return
	}

	// Burst drop: the frame is deleted.
	for _, b := range im.opts.Spec.Bursts {
		if b.Dir == dir && n >= b.From && n < b.From+b.Length {
			im.dropped.Inc()
			return
		}
	}

	// Corruption: substitute the previously sent frame on this half (a
	// genuinely transmitted value, mirroring faults.Corrupt: in-alphabet,
	// wrong content). The substitute is copied to scratch so later frames
	// in the same burst may overwrite st.prev.
	out := frame
	for _, c := range im.opts.Spec.Corruptions {
		if c.Dir == dir && c.EveryN > 0 && len(st.prev) > 0 && (n+1)%c.EveryN == 0 {
			out = sc.copyIn(st.prev)
			im.corrupted.Inc()
			break
		}
	}

	// Reorder: every Nth frame waits for its successor.
	if im.opts.ReorderEveryN > 0 && dir == channel.SToR {
		if st.pending != nil {
			pending := st.pending
			st.pending = nil
			st.prev = append(st.prev[:0], out...)
			sc.frames = append(sc.frames, out, pending)
			sc.free = append(sc.free, pending)
			im.reordered.Inc()
			return
		}
		if (n+1)%im.opts.ReorderEveryN == 0 {
			st.pending = append(getBuf(len(out)), out...)
			return
		}
	}

	st.prev = append(st.prev[:0], out...)
	sc.frames = append(sc.frames, out)

	// Duplication: the dup channel's replay freedom, live.
	if im.opts.DupEveryN > 0 && dir == channel.SToR && (n+1)%im.opts.DupEveryN == 0 {
		im.duped.Inc()
		sc.frames = append(sc.frames, out)
	}
}

// partitioned reports whether frame n on dir falls inside a partition
// window, and if so when it may be released.
func (im *Impairment) partitioned(dir channel.Dir, n int) (release int, blocked bool) {
	for _, w := range im.opts.Spec.Partitions {
		if n < w.From || n >= w.From+w.Length {
			continue
		}
		for _, d := range w.Dirs {
			if d == dir {
				return w.From + w.Length, true
			}
		}
	}
	return 0, false
}
