package mc

import (
	"fmt"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
)

// BoundedReport summarizes a boundedness check (Definition 2, or the weak
// §5 variant when OldMessagesAllowed).
type BoundedReport struct {
	// Samples is the number of points checked.
	Samples int
	// MaxRecovery is the worst-case number of extension steps needed for
	// R to write the next item, over all recovered sample points.
	MaxRecovery int
	// Unrecovered counts sample points with no recovery within Budget —
	// evidence of unboundedness when the budget is generous.
	Unrecovered int
	// PerPosition[i] is the worst recovery when the next item was i+1
	// (0-based i = items already written); -1 marks unrecovered.
	PerPosition map[int]int
	// OldMessagesAllowed records which definition was checked: false =
	// Definition 2 (only messages sent in the extension may be delivered),
	// true = the weak variant.
	OldMessagesAllowed bool
}

// Bounded reports whether every sampled point recovered within budget.
func (r *BoundedReport) Bounded() bool { return r.Unrecovered == 0 }

// BoundedConfig controls the check.
type BoundedConfig struct {
	// Budget is the maximum extension length searched (the constant
	// candidate for f; required > 0).
	Budget int
	// MaxStates caps each per-point BFS (0 = 1<<18).
	MaxStates int
	// OldMessagesAllowed switches to the weak variant: the extension may
	// deliver messages that were already in flight at the sample point.
	// Definition 2 (false) demands recovery from fresh messages alone.
	OldMessagesAllowed bool
	// SampleEvery takes every k-th state of the driving run as a sample
	// point (0 = every state). For the weak variant only the states
	// immediately after a write (the paper's t_i points) are sampled,
	// regardless of this setting.
	SampleEvery int
	// Sampler drives the run whose states are sampled (nil = the
	// canonical fault-free round-robin schedule). Definition 2 quantifies
	// over every point of every run, so checking from the points of a
	// FAULTY run — e.g. sim.NewBudgetDropper — is the stronger test: it
	// is exactly where unbounded protocols fail to recover.
	Sampler sim.Adversary
	// EngineConfig selects the worker count for each per-point recovery
	// search (results are identical for every setting).
	EngineConfig
}

func (c *BoundedConfig) normalize() error {
	if c.Budget <= 0 {
		return fmt.Errorf("mc: Budget must be positive, got %d", c.Budget)
	}
	if c.MaxStates == 0 {
		c.MaxStates = 1 << 18
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 1
	}
	return nil
}

// CheckBounded samples points along a canonical fair run of (spec, input,
// kind) and, from each point with unwritten items remaining, searches for
// an extension in which R writes the next item within Budget steps. Under
// Definition 2 (OldMessagesAllowed == false) the extension may only
// deliver copies sent after the sample point, realizing the paper's
// clause dlvrble(r_t, t') >= dlvrble(r_t, t): long-lost messages stay
// lost. Drops are never used in extensions (they only remove options).
//
// Writes are used as the observable proxy for the paper's knowledge times
// t_i: for every protocol in this repository R writes an item in the same
// step it first knows it, except the batched commits of afwz/hybrid,
// whose writes happen at the commit message — which is also exactly when
// knowledge arrives (the epistemic package verifies this on explored run
// sets).
func CheckBounded(spec protocol.Spec, input seq.Seq, kind channel.Kind, cfg BoundedConfig) (*BoundedReport, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	points, err := samplePoints(spec, input, kind, cfg)
	if err != nil {
		return nil, err
	}
	rep := &BoundedReport{PerPosition: make(map[int]int), OldMessagesAllowed: cfg.OldMessagesAllowed}
	for _, p := range points {
		rep.Samples++
		pos := len(p.Output)
		steps := recoverySearch(p, cfg)
		if steps < 0 {
			rep.Unrecovered++
			rep.PerPosition[pos] = -1
			continue
		}
		if prev, ok := rep.PerPosition[pos]; !ok || (prev >= 0 && steps > prev) {
			rep.PerPosition[pos] = steps
		}
		if steps > rep.MaxRecovery {
			rep.MaxRecovery = steps
		}
	}
	return rep, nil
}

// samplePoints drives a canonical fair run and clones the world at sample
// points that still have items left to write.
func samplePoints(spec protocol.Spec, input seq.Seq, kind channel.Kind, cfg BoundedConfig) ([]*sim.World, error) {
	link, err := channel.NewLinkOfKind(kind)
	if err != nil {
		return nil, err
	}
	w, err := sim.New(spec, input, link)
	if err != nil {
		return nil, err
	}
	var adv sim.Adversary = sim.NewRoundRobin()
	if cfg.Sampler != nil {
		adv = cfg.Sampler
	}
	var points []*sim.World
	maxSteps := 200 * (len(input) + 2)
	prevWritten := -1
	for step := 0; step < maxSteps && !w.OutputComplete(); step++ {
		if cfg.OldMessagesAllowed {
			// Weak variant: sample the paper's t_i points — immediately
			// after a write (including the initial point, "t_0").
			if len(w.Output) != prevWritten {
				prevWritten = len(w.Output)
				points = append(points, w.Clone())
			}
		} else if step%cfg.SampleEvery == 0 {
			points = append(points, w.Clone())
		}
		if err := w.Apply(adv.Choose(w, w.Enabled())); err != nil {
			return nil, err
		}
	}
	return points, nil
}

// freshState tracks, along an extension, how many copies of each message
// were sent after the sample point and not yet delivered in the
// extension. Only these may be delivered under Definition 2.
type freshState map[channel.Dir]msg.Counts

func (f freshState) clone() freshState {
	return freshState{
		channel.SToR: f[channel.SToR].Clone(),
		channel.RToS: f[channel.RToS].Clone(),
	}
}

func (f freshState) key() string {
	return f[channel.SToR].Key() + "/" + f[channel.RToS].Key()
}

// encodeKey appends the binary counterpart of key: both directions'
// self-delimiting multiset encodings.
func (f freshState) encodeKey(buf []byte) []byte {
	buf = f[channel.SToR].EncodeKey(buf)
	return f[channel.RToS].EncodeKey(buf)
}

type recNode struct {
	w     *sim.World
	fresh freshState
	depth int
}

// recoveryCand is one expanded extension step awaiting the level merge.
// Recovery is decided per level: every node of a level sits at the same
// depth, so "some candidate of this level recovered" determines the
// return value independently of candidate order.
type recoveryCand struct {
	node      *recNode
	key       []byte
	hash      uint64
	recovered bool
	skip      bool // apply error or safety-violating "recovery"
}

// recoverySearch BFS-es extensions of the point until R writes another
// item, returning the number of steps or -1 if Budget/MaxStates exhaust.
// Like Explore, it expands each level across cfg.Workers goroutines with
// a deterministic merge, so the result is worker-count independent.
func recoverySearch(point *sim.World, cfg BoundedConfig) int {
	// Every world of the search records its own step (successors of a
	// recording world do), which is how expand learns what a step sent.
	point.StartTrace()
	start := &recNode{
		w:     point,
		fresh: freshState{channel.SToR: msg.Counts{}, channel.RToS: msg.Counts{}},
	}
	target := len(point.Output)
	workers := cfg.workerCount()
	scratch := newScratch(workers)
	em := newEngineMetrics(cfg.Obs, "recovery", workers, false)
	em.noteMerge(true) // the sample point itself
	idx := newStateIndex()
	rootKey := start.fresh.encodeKey(start.w.EncodeKey(scratch[0].keyBuf))
	idx.insert(hashBytes(rootKey), stableCopy(rootKey))
	states := 1

	frontier := []*recNode{start}
	var next []*recNode
	var bufs [][]recoveryCand // per-chunk candidates, reused across levels

	expand := func(ws *workerScratch, cur *recNode, emit func(recoveryCand)) {
		ws.acts = appendRecoveryActions(ws.acts[:0], cur, cfg)
		for _, act := range ws.acts {
			nw, err := cur.w.Successor(act)
			if err != nil {
				emit(recoveryCand{skip: true}) // impossible action; skip
				continue
			}
			nf := cur.fresh.clone()
			entry := nw.Trace.Entries[0] // this step's sends
			sendDir := channel.SToR
			if act.Kind == trace.ActTickR || (act.Kind == trace.ActDeliver && act.Dir == channel.SToR) || (act.Kind == trace.ActDeliverDup && act.Dir == channel.SToR) {
				sendDir = channel.RToS
			}
			for _, m := range entry.Sends {
				nf[sendDir].Add(m, 1)
			}
			if act.Kind == trace.ActDeliver && !cfg.OldMessagesAllowed {
				nf[act.Dir].Add(act.Msg, -1)
			}
			if len(nw.Output) > target {
				// A "recovery" that breaks safety does not count.
				emit(recoveryCand{recovered: nw.SafetyViolation == nil, skip: true})
				continue
			}
			ws.keyBuf = nf.encodeKey(nw.EncodeKey(ws.keyBuf[:0]))
			emit(recoveryCand{
				node: &recNode{w: nw, fresh: nf, depth: cur.depth + 1},
				key:  ws.keyBuf,
				hash: hashBytes(ws.keyBuf),
			})
		}
	}

	recovered := false
	merge := func(c recoveryCand) {
		if c.recovered {
			recovered = true
		}
		if c.skip || recovered {
			return
		}
		if idx.contains(c.hash, c.key) {
			em.noteMerge(false)
			return
		}
		if states >= cfg.MaxStates {
			return
		}
		em.noteMerge(true)
		idx.insert(c.hash, stableCopy(c.key))
		states++
		next = append(next, c.node)
	}

	for depth := 0; len(frontier) > 0 && depth < cfg.Budget; depth++ {
		next = next[:0]
		if workers == 1 {
			for _, cur := range frontier {
				em.noteExpand(0)
				expand(&scratch[0], cur, merge)
				if recovered {
					em.flush()
					return depth + 1
				}
			}
		} else {
			bounds := chunkBounds(len(frontier), workers*chunksPerWorker)
			results := candBufs(&bufs, len(bounds))
			runChunks(workers, bounds, func(worker, chunk int) {
				ws := &scratch[worker]
				out := results[chunk]
				for _, cur := range frontier[bounds[chunk][0]:bounds[chunk][1]] {
					em.noteExpand(worker)
					expand(ws, cur, func(c recoveryCand) {
						if c.key != nil {
							c.key = ws.arena.hold(c.key)
						}
						out = append(out, c)
					})
				}
				results[chunk] = out
			})
			for _, chunk := range results {
				for _, c := range chunk {
					merge(c)
				}
			}
			for i := range scratch {
				scratch[i].arena.reset()
			}
			if recovered {
				em.flush()
				return depth + 1
			}
		}
		em.noteLevel(depth, len(frontier))
		frontier, next = next, frontier
	}
	em.flush()
	return -1
}

// appendRecoveryActions enumerates extension moves: ticks always;
// deliveries of any message under the weak variant, or only messages with
// fresh copies under Definition 2. Duplicating FIFO deliveries of fresh
// heads are included; drops never help recovery and are omitted. It
// appends to acts (a reused per-worker buffer) and returns the extension.
func appendRecoveryActions(acts []trace.Action, cur *recNode, cfg BoundedConfig) []trace.Action {
	acts = append(acts, trace.TickS(), trace.TickR())
	for dir := channel.SToR; dir <= channel.RToS; dir++ {
		half := cur.w.Link.Half(dir)
		for i := 0; ; i++ {
			m, ok := half.Support(i)
			if !ok {
				break
			}
			if !cfg.OldMessagesAllowed && cur.fresh[dir].Get(m) <= 0 {
				continue
			}
			acts = append(acts, trace.Deliver(dir, m))
			if f, ok := half.(*channel.FIFO); ok && f.AllowsDup() {
				acts = append(acts, trace.DeliverDup(dir, m))
			}
		}
	}
	return acts
}
