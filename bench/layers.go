package main

// The traced pass. Ops alternate between obs off and obs on, so one run gives
// the untraced cost, the traced cost and their difference (obs.overhead_pct)
// under the same machine conditions. Then each layer's public API is replayed
// on one wave's traffic with the process otherwise idle: CPU-ns per call times
// the calls per unit the obs counters observed gives that layer's µs per unit,
// and what is left of the traced cpu_us_per_unit is the engine's self time —
// the rows sum to it by construction. Nothing in the product is instrumented;
// every span is recorded here, around a public call.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/obs"
	"seqtx/internal/protocol"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
	"seqtx/internal/wire"
)

var perLayerMetrics = []metricDef{
	{"registry.pair_us", "us", "lower"},
	{"protocol.step_ns", "ns", "lower"},
	{"protocol.step_allocs", "count", "lower"},
	{"protocol.steps_per_unit", "count", "lower"},
	{"msg.lookup_ns", "ns", "lower"},
	{"wire.codec.encode_ns", "ns", "lower"},
	{"wire.codec.decode_ns", "ns", "lower"},
	{"wire.codec.frame_bytes", "B", "lower"},
	{"wire.batch.append_ns_per_frame", "ns", "lower"},
	{"wire.batch.split_ns_per_frame", "ns", "lower"},
	{"wire.batch.frames_per_blob", "count", "higher"},
	{"wire.inproc.roundtrip_ns_per_frame", "ns", "lower"},
	{"wire.udp.roundtrip_ns_per_frame", "ns", "lower"},
	{"wire.impair.send_ns_per_frame", "ns", "lower"},
	{"wire.impair.drop_share", "1", "lower"},
	{"wire.impair.dup_share", "1", "lower"},
	{"wire.session.frames_per_unit", "count", "lower"},
	{"wire.session.retransmits_per_unit", "count", "lower"},
	{"wire.session.useful_frame_share", "1", "higher"},
	{"wire.session.inbox_drops", "count", "lower"},
	{"wire.mux.drops.inbox_full", "count", "lower"},
	{"wire.mux.drops.outbox_full", "count", "lower"},
	{"wire.mux.drops.unknown_session", "count", "lower"},
	{"sim.clone_ns", "ns", "lower"},
	{"sim.apply_ns", "ns", "lower"},
	{"sim.enabled_ns", "ns", "lower"},
	{"sim.encodekey_ns", "ns", "lower"},
	{"mc.states_per_op", "count", "lower"},
	{"mc.dedup_hit_share", "1", "lower"},
	{"mc.levels", "count", "lower"},
	{"mc.worker_balance", "1", "higher"},
	{"budget.traced_cpu_us_per_unit", "us", "lower"},
	{"budget.registry_us_per_unit", "us", "lower"},
	{"budget.protocol_us_per_unit", "us", "lower"},
	{"budget.msg_us_per_unit", "us", "lower"},
	{"budget.codec_us_per_unit", "us", "lower"},
	{"budget.batch_us_per_unit", "us", "lower"},
	{"budget.transport_us_per_unit", "us", "lower"},
	{"budget.impair_us_per_unit", "us", "lower"},
	{"budget.sim_us_per_unit", "us", "lower"},
	{"wire.engine.self_us_per_unit", "us", "lower"},
	{"mc.self_us_per_unit", "us", "lower"},
	{"proc.user_us_per_unit", "us", "lower"},
	{"proc.sys_us_per_unit", "us", "lower"},
	{"proc.cpu_util", "1", "lower"},
	{"go.gc_cpu_share", "1", "lower"},
	{"go.heap_peak_mb", "MB", "lower"},
	{"obs.overhead_pct", "%", "lower"},
	{"bench.stalled_ops", "count", "lower"},
	{"bench.warmup_failed_ops", "count", "lower"},
	{"bench.stall_wait_s", "s", "lower"},
}

// budgetRows are the per-layer µs/unit rows; with the workload's self-time
// row they sum to budget.traced_cpu_us_per_unit.
var budgetRows = []string{
	"budget.registry_us_per_unit", "budget.protocol_us_per_unit", "budget.msg_us_per_unit",
	"budget.codec_us_per_unit", "budget.batch_us_per_unit", "budget.transport_us_per_unit",
	"budget.impair_us_per_unit", "budget.sim_us_per_unit",
}

// opsShare is the part of a traced run spent on interleaved ops; the rest is
// split evenly among the layer replays.
const opsShare = 0.6

// span is one harness-recorded interval around a public call into a layer.
// Spans of one op share its number; replays carry op -1.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// spanLog keeps spans in memory; they are written out only when the run ends.
// A nil log records nothing (the untraced pass).
type spanLog struct {
	origin time.Time
	spans  []span
}

func (l *spanLog) add(name string, op int, start time.Time, d time.Duration) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{Name: name, Op: op, StartNs: start.Sub(l.origin).Nanoseconds(), DurNs: d.Nanoseconds()})
}

func (l *spanLog) write(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// tracing is the state the traced pass carries through measure.
type tracing struct {
	spans    *spanLog
	totals   obsTotals
	counters *runtimeCounters
	heapPeak uint64 // largest heap seen between ops
}

func (t *tracing) sampleHeap() {
	if h := t.counters.read().heapBytes; h > t.heapPeak {
		t.heapPeak = h
	}
}

// obsTotals sums the obs snapshots of the clean traced ops.
type obsTotals struct {
	counters   map[string]int64
	blobs      int64   // wire_batch_frames observations
	blobFrames float64 // their sum
}

func (t *obsTotals) add(s obs.Snapshot) {
	if t.counters == nil {
		t.counters = map[string]int64{}
	}
	for name, v := range s.Counters {
		t.counters[name] += v
	}
	h := s.Histograms["wire_batch_frames"]
	t.blobs += h.Count
	t.blobFrames += h.Sum
}

// sum adds every counter whose name starts with prefix (a labelled family).
func (t *obsTotals) sum(prefix string) float64 {
	var n int64
	for name, v := range t.counters {
		if strings.HasPrefix(name, prefix) {
			n += v
		}
	}
	return float64(n)
}

// replayer times layer replays. Each replay runs alone (no transport, no
// engine goroutines alive), so process CPU time is the replay's own cost plus
// the garbage collection it causes.
type replayer struct {
	slice    time.Duration
	counters *runtimeCounters
	spans    *spanLog
}

// run repeats prepare (untimed) and body (timed) for about r.slice and returns
// CPU-ns and heap allocations per call; body returns how many calls it made.
func (r *replayer) run(name string, prepare func(), body func() int) (nsPerCall, allocsPerCall float64) {
	start := time.Now()
	var cpu time.Duration
	var mallocs uint64
	calls := 0
	for time.Since(start) < r.slice || calls == 0 {
		if prepare != nil {
			prepare()
		}
		rt0, cpu0 := r.counters.read(), processCPU()
		calls += body()
		cpu += processCPU() - cpu0
		mallocs += r.counters.read().mallocs - rt0.mallocs
	}
	r.spans.add("replay."+name, -1, start, time.Since(start))
	return float64(cpu.Nanoseconds()) / float64(calls), float64(mallocs) / float64(calls)
}

// lockstepper drives a sender/receiver pair in lock step over a perfect FIFO
// channel: deliver everything in flight, tick both processes when nothing is.
// It is the traffic generator for the layer replays and the Step benchmark.
type lockstepper struct {
	toR, toS []msg.Msg
}

// run steps the pair until the receiver has written want items and returns
// the number of Step calls. emit, when non-nil, sees every message sent.
func (l *lockstepper) run(s protocol.Sender, r protocol.Receiver, want int, emit func(channel.Dir, msg.Msg)) (int, error) {
	l.toR, l.toS = l.toR[:0], l.toS[:0]
	steps, written := 0, 0
	limit := 64 + 64*want
	for written < want {
		if steps > limit {
			return steps, fmt.Errorf("lock-step replay wrote %d of %d items in %d steps", written, want, steps)
		}
		if len(l.toR) == 0 && len(l.toS) == 0 {
			l.toR = append(l.toR, s.Step(protocol.TickEvent())...)
			acks, writes := r.Step(protocol.TickEvent())
			l.toS = append(l.toS, acks...)
			written += len(writes)
			steps += 2
		}
		for _, m := range l.toR {
			if emit != nil {
				emit(channel.SToR, m)
			}
			acks, writes := r.Step(protocol.RecvEvent(m))
			l.toS = append(l.toS, acks...)
			written += len(writes)
			steps++
		}
		l.toR = l.toR[:0]
		for _, m := range l.toS {
			if emit != nil {
				emit(channel.RToS, m)
			}
			l.toR = append(l.toR, s.Step(protocol.RecvEvent(m))...)
			steps++
		}
		l.toS = l.toS[:0]
	}
	return steps, nil
}

// nullTransport swallows frames: the inner transport under the impairment
// replay, so that what is timed is the impairment layer alone.
type nullTransport struct{}

func (nullTransport) Name() string                       { return "null" }
func (nullTransport) Send(wire.End, []byte) error        { return nil }
func (nullTransport) SendBatch(wire.End, [][]byte) error { return nil }
func (nullTransport) Recv(wire.End) <-chan []byte        { return nil }
func (nullTransport) Close() error                       { return nil }

// runTraced is the -trace 1 pass for one workload.
func runTraced(w workload, seed int64, d time.Duration, spansTo string, stderr io.Writer) (result, error) {
	r, err := newRunner(w, seed)
	if err != nil {
		return result{}, err
	}
	warmStalled, _, err := warmUp(r, w)
	if err != nil {
		return result{}, err
	}
	counters := newRuntimeCounters()
	tr := &tracing{spans: &spanLog{origin: time.Now()}, counters: counters}
	rt0, cpu0 := counters.read(), processCPU()
	plain, traced, err := measure(r, w.warmupOps, time.Duration(opsShare*float64(d)), 0, tr)
	if err != nil {
		return result{}, err
	}
	rt1, cpu1 := counters.read(), processCPU()
	ps, ts := summarize(plain, timeoutMs(w)), summarize(traced, timeoutMs(w))
	if ts.cleanUnits == 0 || ps.cleanUnits == 0 {
		return result{}, fmt.Errorf("no clean op in the traced pass (%d of %d failed)", ps.failed+ts.failed, ps.attempted+ts.attempted)
	}
	breach := firstBreach(plain, traced)
	if breach != nil {
		fmt.Fprintf(stderr, "bench: %s: CORRECTNESS BREACH: %v\n", w.name, breach)
	}

	res := newResult(ps.attempted+ts.attempted, ps.failed+ts.failed, breach)
	for _, def := range perLayerMetrics {
		res.set(perLayerMetrics, def.name, 0) // a layer the workload does not use reads 0
	}
	set := func(name string, v float64) { res.set(perLayerMetrics, name, v) }
	units := float64(ts.cleanUnits)

	set("budget.traced_cpu_us_per_unit", ts.cpuUsPerUnit)
	set("obs.overhead_pct", 100*(ts.cpuUsPerUnit-ps.cpuUsPerUnit)/ps.cpuUsPerUnit)
	set("proc.user_us_per_unit", float64(ts.cleanUser.Nanoseconds())/1e3/units)
	set("proc.sys_us_per_unit", float64(ts.cleanSys.Nanoseconds())/1e3/units)
	set("proc.cpu_util", ts.cleanCPU.Seconds()/ts.cleanWall.Seconds())
	set("go.gc_cpu_share", (rt1.gcCPU-rt0.gcCPU)/(cpu1-cpu0).Seconds())
	set("go.heap_peak_mb", float64(tr.heapPeak)/(1<<20))
	set("bench.stalled_ops", float64(ps.stalled+ts.stalled))
	set("bench.stall_wait_s", (ps.stallWait + ts.stallWait).Seconds())
	set("bench.warmup_failed_ops", float64(warmStalled))

	rp := &replayer{counters: counters, spans: tr.spans}
	var self string
	if w.fleet != nil {
		self = "wire.engine.self_us_per_unit"
		rp.slice = time.Duration((1 - opsShare) * float64(d) / 8) // eight replays
		err = fleetLayers(r.(*fleet), rp, &tr.totals, ts, set)
	} else {
		self = "mc.self_us_per_unit"
		rp.slice = time.Duration((1 - opsShare) * float64(d) / 6) // five replays and the world sampling
		err = explorerLayers(r.(*explorer), rp, &tr.totals, ts, set)
	}
	if err != nil {
		return result{}, err
	}
	rest := ts.cpuUsPerUnit
	for _, row := range budgetRows {
		rest -= res.Metrics[row].Value
	}
	set(self, rest)

	if spansTo != "" {
		if err := tr.spans.write(spansTo); err != nil {
			return result{}, err
		}
	}
	fmt.Fprintf(stderr, "%s: traced pass: %d ops obs-off, %d ops obs-on, %d failed, %d stalled attempts retried, %d spans\n",
		w.name, ps.attempted, ts.attempted, res.Failed, ps.stalled+ts.stalled, len(tr.spans.spans))
	return res, nil
}

// fleetLayers replays one wave's traffic through each wire layer.
func fleetLayers(f *fleet, rp *replayer, totals *obsTotals, ts summary, set func(string, float64)) error {
	units := float64(ts.cleanUnits)
	cleanOps := float64(ts.attempted - ts.failed)

	// Counts per unit, from the obs counters and reports of clean traced ops.
	tx := totals.sum("wire_frames_tx_total")
	txData := float64(totals.counters[`wire_frames_tx_total{dir="s_to_r"}`])
	rx := totals.sum("wire_frames_rx_total")
	set("wire.session.frames_per_unit", tx/units)
	set("wire.session.retransmits_per_unit", float64(totals.counters["wire_retransmits_total"])/units)
	set("wire.session.useful_frame_share", units/txData)
	set("wire.session.inbox_drops", float64(ts.cleanInboxDrops)/units)
	for _, cause := range []string{"inbox_full", "outbox_full", "unknown_session"} {
		set("wire.mux.drops."+cause, float64(totals.counters[`wire_frames_dropped_total{cause="`+cause+`"}`])/units)
	}
	if decided := totals.sum("wire_chanmodel_"); decided > 0 {
		set("wire.impair.drop_share", float64(totals.counters["wire_chanmodel_drop_total"])/decided)
		set("wire.impair.dup_share", float64(totals.counters["wire_chanmodel_dup_total"])/decided)
	}
	perBlob := 1.0
	if totals.blobs > 0 {
		perBlob = totals.blobFrames / float64(totals.blobs)
	}
	set("wire.batch.frames_per_blob", perBlob)

	// registry.Pair: measured in place, by the span around each wave's
	// construction loop.
	pairUs := float64(ts.cleanBuild.Nanoseconds()) / 1e3
	set("registry.pair_us", pairUs/(cleanOps*float64(f.spec.sessions)))
	set("budget.registry_us_per_unit", pairUs/units)

	// One wave's traffic: the lock-step replay of wave 0's sessions.
	inputs := f.tapes(0)
	var ls lockstepper
	var frames []wire.Frame
	var alphabets []msg.Alphabet // per frame: the alphabet its receiver looks it up in
	build := func() ([]wire.SessionConfig, error) { return f.sessions(0, inputs) }
	cfgs, err := build()
	if err != nil {
		return err
	}
	for _, c := range cfgs {
		sa, ra := c.Sender.Alphabet(), c.Receiver.Alphabet()
		_, err := ls.run(c.Sender, c.Receiver, len(c.Input), func(dir channel.Dir, m msg.Msg) {
			frames = append(frames, wire.Frame{Session: c.ID, Dir: dir, Msg: m})
			if dir == channel.SToR {
				alphabets = append(alphabets, sa)
			} else {
				alphabets = append(alphabets, ra)
			}
		})
		if err != nil {
			return err
		}
	}

	// protocol.Step. Live sessions also take a tick step per process per
	// pacing tick while they wait; the live count is estimated from the
	// frames delivered plus two ticks per elapsed tick interval.
	stepNs, stepAllocs := rp.run("protocol.step", func() {
		if cfgs, err = build(); err != nil {
			panic(err) // the same call succeeded above
		}
	}, func() int {
		n := 0
		for _, c := range cfgs {
			k, _ := ls.run(c.Sender, c.Receiver, len(c.Input), nil)
			n += k
		}
		return n
	})
	liveSteps := rx + 2*ts.cleanDoneMs/(float64(fleetTick.Nanoseconds())/1e6)
	set("protocol.step_ns", stepNs)
	set("protocol.step_allocs", stepAllocs)
	set("protocol.steps_per_unit", liveSteps/units)
	set("budget.protocol_us_per_unit", stepNs*liveSteps/units/1e3)

	// msg.Alphabet.Lookup, once per inbound payload.
	payloads := make([][]byte, len(frames))
	for i, fr := range frames {
		payloads[i] = []byte(fr.Msg)
	}
	lookupNs, _ := rp.run("msg.lookup", nil, func() int {
		for i, p := range payloads {
			if _, ok := alphabets[i].Lookup(p); !ok {
				panic("bench: replayed message outside its alphabet")
			}
		}
		return len(payloads)
	})
	set("msg.lookup_ns", lookupNs)
	set("budget.msg_us_per_unit", lookupNs*rx/units/1e3)

	// Frame codec.
	encoded := make([][]byte, len(frames))
	bytes := 0
	for i, fr := range frames {
		encoded[i] = wire.EncodeFrame(fr)
		bytes += len(encoded[i])
	}
	var buf []byte
	encNs, _ := rp.run("wire.codec.encode", nil, func() int {
		for _, fr := range frames {
			buf = wire.AppendFrame(buf[:0], fr)
		}
		return len(frames)
	})
	var view wire.FrameView
	decNs, _ := rp.run("wire.codec.decode", nil, func() int {
		for _, e := range encoded {
			if err := wire.DecodeFrameInto(&view, e); err != nil {
				panic(err)
			}
		}
		return len(encoded)
	})
	set("wire.codec.encode_ns", encNs)
	set("wire.codec.decode_ns", decNs)
	set("wire.codec.frame_bytes", float64(bytes)/float64(len(frames)))
	set("budget.codec_us_per_unit", (encNs*tx+decNs*rx)/units/1e3)

	// Batch framing, at the blob size the live run coalesced to.
	groups := groupFrames(encoded, int(math.Round(perBlob)))
	var appendNs, splitNs float64
	if len(groups[0]) > 1 {
		blobs := make([][]byte, len(groups))
		for i, g := range groups {
			blobs[i] = wire.AppendBatch(nil, g)
		}
		appendNs, _ = rp.run("wire.batch.append", nil, func() int {
			for _, g := range groups {
				buf = wire.AppendBatch(buf[:0], g)
			}
			return len(encoded)
		})
		splitNs, _ = rp.run("wire.batch.split", nil, func() int {
			for _, b := range blobs {
				if err := wire.SplitBatch(b, func([]byte) error { return nil }); err != nil {
					panic(err)
				}
			}
			return len(encoded)
		})
	}
	set("wire.batch.append_ns_per_frame", appendNs)
	set("wire.batch.split_ns_per_frame", splitNs)
	set("budget.batch_us_per_unit", (appendNs*tx+splitNs*rx)/units/1e3)

	// Transport: SendBatch at one end, Recv at the other, one blob in flight.
	// A lost blob would block the replay, so a watchdog closes the transport
	// (and with it the Recv channel) well after the replay should be over.
	var tr wire.Transport = wire.NewInproc(0, nil)
	layer := "wire.inproc"
	if f.spec.udp {
		layer = "wire.udp"
		if tr, err = wire.NewUDP(nil); err != nil {
			return err
		}
	}
	watchdog := time.AfterFunc(rp.slice+5*time.Second, func() { tr.Close() })
	lost := false
	rtNs, _ := rp.run(layer, nil, func() int {
		for _, g := range groups {
			if err := tr.(wire.BatchSender).SendBatch(wire.SenderEnd, g); err != nil {
				lost = true
				break
			}
			blob, ok := <-tr.Recv(wire.ReceiverEnd)
			if !ok {
				lost = true
				break
			}
			wire.ReleaseBuf(blob)
		}
		return len(encoded)
	})
	watchdog.Stop()
	if err := tr.Close(); err != nil {
		return err
	}
	if lost {
		return fmt.Errorf("%s replay: a blob was lost in transit", layer)
	}
	set(layer+".roundtrip_ns_per_frame", rtNs)
	// SendBatch packs the blob itself, so the batch row's append is inside
	// the round trip; the transport row is what remains.
	set("budget.transport_us_per_unit", math.Max(0, rtNs-appendNs)*tx/units/1e3)

	// Impairment, over a transport that swallows what survives.
	im, err := wire.NewImpairment(nullTransport{}, f.opts, nil)
	if err != nil {
		return err
	}
	data := make([][]byte, 0, len(encoded))
	for i, fr := range frames {
		if fr.Dir == channel.SToR {
			data = append(data, encoded[i])
		}
	}
	dataGroups := groupFrames(data, int(math.Round(perBlob)))
	impNs, _ := rp.run("wire.impair.send", nil, func() int {
		for _, g := range dataGroups {
			if err := im.SendBatch(wire.SenderEnd, g); err != nil {
				panic(err)
			}
		}
		return len(data)
	})
	set("wire.impair.send_ns_per_frame", impNs)
	set("budget.impair_us_per_unit", impNs*txData/units/1e3)
	return nil
}

// groupFrames cuts frames into consecutive groups of n (at least 1).
func groupFrames(frames [][]byte, n int) [][][]byte {
	if n < 1 {
		n = 1
	}
	var groups [][][]byte
	for len(frames) > 0 {
		k := min(n, len(frames))
		groups = append(groups, frames[:k])
		frames = frames[k:]
	}
	return groups
}

// explorerLayers replays sim.World's public operations on worlds sampled
// along a BFS prefix of the same state space mc.Explore searches.
func explorerLayers(e *explorer, rp *replayer, totals *obsTotals, ts summary, set func(string, float64)) error {
	runs := float64(totals.counters["mc_explore_runs_total"])
	states := float64(totals.counters["mc_explore_states_total"])
	hits := float64(totals.counters["mc_explore_dedup_hits_total"])
	misses := float64(totals.counters["mc_explore_dedup_misses_total"])
	set("mc.states_per_op", states/runs)
	set("mc.levels", float64(totals.counters["mc_explore_levels_total"])/runs)
	set("mc.dedup_hit_share", hits/(hits+misses))
	lo, hi := math.Inf(1), 0.0
	for name, v := range totals.counters {
		if strings.HasPrefix(name, "mc_worker_expansions_total") {
			lo, hi = math.Min(lo, float64(v)), math.Max(hi, float64(v))
		}
	}
	if hi > 0 {
		set("mc.worker_balance", lo/hi)
	}

	worlds, acts, err := sampleWorlds(e, 2048)
	if err != nil {
		return err
	}
	cloneNs, _ := rp.run("sim.clone", nil, func() int {
		for _, w := range worlds {
			if w.Clone() == nil {
				panic("nil clone")
			}
		}
		return len(worlds)
	})
	var actBuf []trace.Action
	enabledNs, _ := rp.run("sim.enabled", nil, func() int {
		for _, w := range worlds {
			actBuf = w.AppendEnabled(actBuf[:0])
		}
		return len(worlds)
	})
	var keyBuf []byte
	keyNs, _ := rp.run("sim.encodekey", nil, func() int {
		for _, w := range worlds {
			keyBuf = w.EncodeKey(keyBuf[:0])
		}
		return len(worlds)
	})
	// Apply consumes the world, so each call gets a clone made beforehand,
	// outside the timed region.
	clones := make([]*sim.World, len(worlds))
	applyNs, _ := rp.run("sim.apply", func() {
		for i, w := range worlds {
			clones[i] = w.Clone()
		}
	}, func() int {
		for i, w := range clones {
			if err := w.Apply(acts[i]); err != nil {
				panic(err)
			}
		}
		return len(clones)
	})
	set("sim.clone_ns", cloneNs)
	set("sim.enabled_ns", enabledNs)
	set("sim.encodekey_ns", keyNs)
	set("sim.apply_ns", applyNs)

	// Explore clones, applies and keys once per transition (a dedup hit or
	// miss) and lists enabled actions once per state. Step runs inside
	// Apply, so the protocol row stays 0 here and is not counted twice.
	transitions := hits + misses
	set("budget.sim_us_per_unit", (transitions*(cloneNs+applyNs+keyNs)+states*enabledNs)/states/1e3)

	var ls lockstepper
	var s protocol.Sender
	var r protocol.Receiver
	stepNs, stepAllocs := rp.run("protocol.step", func() {
		if s, err = e.spec.NewSender(e.input); err != nil {
			panic(err) // newExplorer's spec and tape
		}
		if r, err = e.spec.NewReceiver(); err != nil {
			panic(err)
		}
	}, func() int {
		n, _ := ls.run(s, r, len(e.input), nil)
		return n
	})
	set("protocol.step_ns", stepNs)
	set("protocol.step_allocs", stepAllocs)
	set("protocol.steps_per_unit", transitions/states) // at most one Step per transition
	return nil
}

// sampleWorlds walks the explorer's state space breadth-first and returns up
// to n distinct worlds, each with one action enabled in it.
func sampleWorlds(e *explorer, n int) ([]*sim.World, []trace.Action, error) {
	link, err := channel.NewLinkOfKind(channel.KindDel)
	if err != nil {
		return nil, nil, err
	}
	root, err := sim.New(e.spec, e.input, link)
	if err != nil {
		return nil, nil, err
	}
	seen := map[string]bool{root.Key(): true}
	worlds := []*sim.World{root}
	var acts []trace.Action
	for i := 0; i < len(worlds) && len(worlds) < n; i++ {
		for _, act := range worlds[i].Enabled() {
			child := worlds[i].Clone()
			if err := child.Apply(act); err != nil {
				return nil, nil, err
			}
			if key := child.Key(); !seen[key] && len(worlds) < n {
				seen[key] = true
				worlds = append(worlds, child)
			}
		}
	}
	for i, w := range worlds {
		enabled := w.Enabled()
		if len(enabled) == 0 {
			return nil, nil, fmt.Errorf("sampled world %d has no enabled action", i)
		}
		acts = append(acts, enabled[i%len(enabled)])
	}
	return worlds, acts, nil
}
