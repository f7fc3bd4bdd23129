package sim

import (
	"encoding/binary"
	"fmt"
	"slices"
	"unsafe"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/slab"
	"seqtx/internal/trace"
)

// System is the transition system of one protocol over one link,
// tabulated lazily. The paper's global state is a tuple of local states
// (§2.2) and its processes are deterministic, so a state space is a
// product of a few small local ones. A System files every sender state,
// receiver state and channel half it meets under its EncodeKey bytes
// and hands out a small dense id; each local move — a process stepping
// on a tick or a message, a half taking a send, a delivery or a drop —
// is computed once and remembered. A process steps a private clone of
// the filed object; a half steps its kind's scratch copy of it, and only
// a result with a new key is copied into the System's chunks and filed.
// A global successor is then a handful of lookups (Step), and two global
// states are equal exactly when their ids are.
//
// The memo is sound because Step is deterministic (the Sender/Receiver
// contract: equal keys imply behaviourally identical states) and
// interning is injective on key bytes, so ids partition states exactly
// as EncodeKey does. Filed objects are never written again. Which id a
// state gets depends on the order questions were asked in — callers may
// compare ids for equality, never order them.
//
// Senders are filed per input (a sender's key does not say which X it
// was built from), so one System serves worlds on different inputs: the
// two runs of a product share a receiver, its moves and the ids of
// their messages.
//
// One goroutine per System: every method may file or memoise, and nothing
// is locked. Checks that run side by side build a System each; they share
// only what the spec shares (message tables, closures), which is read-only.
type System struct {
	proto *World // the world the system was built from: spec, link alphabets

	inputs    []seq.Seq
	msgs      []msg.Msg
	msgIDs    map[msg.Msg]int32
	senders   procs[protocol.Sender]
	receivers procs[protocol.Receiver]
	halves    table[halfRow]
	halfSteps [][]int32 // [half id][halfOps*msg+op-opSend] -> half id, stored +1 so zero means unknown
	keyBuf    []byte
	moveBuf   []halfMove // InternHalf's scratch
	// The chunks a new half, its moves, every filed key and every memo
	// row are carved from: they live as long as the tables, which never
	// unfile anything.
	store    channel.Store
	moves    slab.Slab[halfMove]
	keys     slab.Slab[byte]
	halfRows slab.Slab[int32]
	stepRows slab.Slab[*procStep]
	// scratch is stepHalf's working half of each kind: a filed half is
	// copied into it, stepped and keyed, and filed only if new. The
	// halves of one kind a System files share a concrete type, as
	// CopyFrom requires: every System is built over a link made by kind,
	// never over a faults-wrapped one.
	scratch map[channel.Kind]channel.Half
}

// State is a global state by identity: the ids of its sender, receiver
// and two halves in one System's tables. The output tape is the
// caller's to track (Tape); the local states never read it.
type State struct{ S, R, SToR, RToS int32 }

// Hash mixes the four ids into one word, the part of a search key
// (sim.Key) that a state contributes. Equal states hash equal.
func (st State) Hash() uint64 {
	h := (uint64(uint32(st.S))<<32 | uint64(uint32(st.R))) * 0x9e3779b97f4a7c15
	h = (h ^ h>>31 ^ (uint64(uint32(st.SToR))<<32 | uint64(uint32(st.RToS)))) * 0xbf58476d1ce4e5b9
	return h ^ h>>29
}

func (st *State) half(d channel.Dir) *int32 {
	if d == channel.SToR {
		return &st.SToR
	}
	return &st.RToS
}

// Move is a scheduler action in a System's vocabulary: a trace.Action
// whose message is an id (System.Action converts back).
type Move struct {
	Kind trace.ActKind
	Dir  channel.Dir
	Msg  int32
}

// Step is a tabulated successor. Sends and Writes are the memo's own
// slices: read, never written.
type Step struct {
	Next    State
	Sends   []int32     // ids of the messages the stepped process sent, in order
	SendDir channel.Dir // the direction they travel
	Writes  seq.Seq     // the items R wrote
}

// table files objects of one kind under their key bytes.
type table[T any] struct {
	rows []filed[T]
	ids  map[string]int32
}

type filed[T any] struct {
	obj T
	key string // the bytes obj was filed under, shared with ids
}

// file appends obj under key (not yet present), copying the key into
// keys, and returns its id.
func (t *table[T]) file(obj T, key []byte, keys *slab.Slab[byte]) int32 {
	// A slab never writes a value after handing it out, and nothing else
	// writes the copy, so the string over it is as immutable as a map key
	// must be.
	cp := keys.Clone(key)
	id, k := int32(len(t.rows)), unsafe.String(unsafe.SliceData(cp), len(cp))
	t.ids[k] = id
	t.rows = append(t.rows, filed[T]{obj, k})
	return id
}

// runOf reads the index of the run's input a process key starts with.
func runOf(key string) uint64 {
	run, _ := binary.Uvarint([]byte(key[:min(len(key), binary.MaxVarintLen64)]))
	return run
}

// procs is the table of one process, S or R, and the memo of its steps.
// A process is filed under the index of its run's input (always zero
// for R, which no input reaches) followed by its own key.
type procs[P interface{ Key() string }] struct {
	table[P]
	steps [][]*procStep // [id][event], nil until computed
	clone func(P) P
	step  func(P, protocol.Event) ([]msg.Msg, seq.Seq)
	out   channel.Dir // the direction its sends travel
}

// procStep is one memoised process step.
type procStep struct {
	next   int32
	sends  []int32
	writes seq.Seq
	err    error // a send outside the alphabet
}

// halfRow is a filed half with its moves: the move walk over its
// support (halfMoves), in its order.
type halfRow struct {
	h     channel.Half
	moves []halfMove
}

type halfMove struct {
	kind trace.ActKind
	msg  int32
}

// A half's memo has a column per message and operation: a send, or the
// half operation of a channel action kind. opSend is the kind just before
// those three, which names no half operation of its own.
const (
	opSend  = trace.ActDeliver - 1
	halfOps = int32(trace.ActDrop - opSend + 1)
)

// NewSystem returns the empty table of the system w belongs to: its
// spec over its link's kind and alphabets. w is only read.
func NewSystem(w *World) *System {
	return &System{
		proto:   w.Clone(),
		msgIDs:  make(map[msg.Msg]int32),
		halves:  table[halfRow]{ids: make(map[string]int32)},
		scratch: make(map[channel.Kind]channel.Half),
		senders: procs[protocol.Sender]{
			table: table[protocol.Sender]{ids: make(map[string]int32)},
			clone: protocol.Sender.Clone,
			step:  func(s protocol.Sender, ev protocol.Event) ([]msg.Msg, seq.Seq) { return s.Step(ev), nil },
			out:   channel.SToR,
		},
		receivers: procs[protocol.Receiver]{
			table: table[protocol.Receiver]{ids: make(map[string]int32)},
			clone: protocol.Receiver.Clone,
			step:  protocol.Receiver.Step,
			out:   channel.RToS,
		},
	}
}

// Intern files the components of w (clones; w is only read) and returns
// its identity. w must be a world of this system's spec and link, on
// any input.
func (sys *System) Intern(w *World) State {
	run := slices.IndexFunc(sys.inputs, w.Input.Equal)
	if run < 0 {
		run = len(sys.inputs)
		sys.inputs = append(sys.inputs, w.Input)
	}
	return State{
		S:    internProc(sys, &sys.senders, w.S, uint64(run), false),
		R:    internProc(sys, &sys.receivers, w.R, 0, false),
		SToR: sys.InternHalf(w.Link.Half(channel.SToR)),
		RToS: sys.InternHalf(w.Link.Half(channel.RToS)),
	}
}

// owned says a process is a private clone the table may keep; otherwise
// a new entry clones it.

func internProc[P interface{ Key() string }](sys *System, t *procs[P], p P, run uint64, owned bool) int32 {
	sys.keyBuf = protocol.AppendKey(binary.AppendUvarint(sys.keyBuf[:0], run), p)
	if id, ok := t.ids[string(sys.keyBuf)]; ok {
		return id
	}
	if !owned {
		p = t.clone(p)
	}
	return t.file(p, sys.keyBuf, &sys.keys)
}

// InternHalf returns the id of h's key, filing a copy of h carved into
// the System's chunks if the key is new; h is only read. Callers that
// keep a multiset of their own beside a State file it here too (the
// fresh copies of Definition 2 are a reorder half).
func (sys *System) InternHalf(h channel.Half) int32 {
	sys.keyBuf = h.EncodeKey(sys.keyBuf[:0])
	if id, ok := sys.halves.ids[string(sys.keyBuf)]; ok {
		return id
	}
	h = sys.store.Clone(h)
	moves := sys.moveBuf[:0]
	halfMoves(h, func(kind trace.ActKind, m msg.Msg) {
		moves = append(moves, halfMove{kind, sys.msgID(m)})
	})
	sys.moveBuf = moves
	return sys.halves.file(halfRow{h, sys.moves.Clone(moves)}, sys.keyBuf, &sys.keys)
}

func (sys *System) msgID(m msg.Msg) int32 {
	id, ok := sys.msgIDs[m]
	if !ok {
		id = int32(len(sys.msgs))
		sys.msgIDs[m] = id
		sys.msgs = append(sys.msgs, m)
	}
	return id
}

// slot returns the address of tab[i][j], growing both levels as needed:
// a new row is carved from rows with at least width columns, the columns
// the known messages make, so it is grown once unless a new message
// widens it, which appends.
func slot[T any](tab *[][]T, rows *slab.Slab[T], i, j, width int32) *T {
	for int(i) >= len(*tab) {
		*tab = append(*tab, nil)
	}
	row := &(*tab)[i]
	if n := int(max(j+1, width)); *row == nil {
		*row = rows.Make(n)
	} else if int(j) >= len(*row) {
		*row = append(*row, make([]T, n-len(*row))...)
	}
	return &(*row)[j]
}

// stepProc returns the step of process id on event ev (0 is a tick, 1+m
// the delivery of message m), computing it on first use: on a clone of
// the filed object, copying the sends out as ids (Step's slices die at
// the process's next Step) after the send check. A hit is an index into
// a slice.
func stepProc[P interface{ Key() string }](sys *System, t *procs[P], id, ev int32) *procStep {
	if e := *slot(&t.steps, &sys.stepRows, id, ev, 1+int32(len(sys.msgs))); e != nil {
		return e
	}
	event := protocol.TickEvent()
	if ev > 0 {
		event = protocol.RecvEvent(sys.msgs[ev-1])
	}
	p := t.clone(t.rows[id].obj)
	sends, writes := t.step(p, event)
	e := &procStep{writes: writes.Clone()}
	for _, m := range sends {
		if err := sys.proto.Link.Admits(t.out, m); err != nil {
			e.err = sendErr(t.out, err)
			break
		}
		e.sends = append(e.sends, sys.msgID(m))
	}
	if e.err == nil {
		e.next = internProc(sys, t, p, runOf(t.rows[id].key), true)
	}
	t.steps[id][ev] = e
	return e
}

// stepHalf returns half id after op on message m — a send, or halfOp of
// a channel action on the half in direction dir — computing it on first
// use on the kind's scratch copy of the filed half, which InternHalf
// copies into the System's chunks only when the result is new: most
// misses land on a filed half and allocate nothing. A rejected operation
// is not remembered: its error is the caller's to report, and no search
// takes one.
func (sys *System) stepHalf(id int32, op trace.ActKind, dir channel.Dir, m int32) (int32, error) {
	i := halfOps*m + int32(op-opSend)
	if next := *slot(&sys.halfSteps, &sys.halfRows, id, i, halfOps*int32(len(sys.msgs))); next != 0 {
		return next - 1, nil
	}
	src := sys.halves.rows[id].obj.h
	h := sys.scratch[src.Kind()]
	if h == nil {
		h = src.Clone()
		sys.scratch[src.Kind()] = h
	} else {
		h.CopyFrom(src)
	}
	if op == opSend {
		h.Send(sys.msgs[m])
	} else if err := halfOp(h, op, dir, sys.msgs[m]); err != nil {
		return 0, err
	}
	next := sys.InternHalf(h)
	sys.halfSteps[id][i] = next + 1
	return next, nil
}

func (sys *System) half(id int32) halfRow { return sys.halves.rows[id].obj }

// HalfSend, HalfDeliver and HalfHolds are the half table by itself:
// the half after one more copy of m, the half after a delivery of m
// (an error if it holds none), and whether it holds one.

func (sys *System) HalfSend(h, m int32) int32 {
	next, _ := sys.stepHalf(h, opSend, 0, m) // a send is never rejected
	return next
}

func (sys *System) HalfDeliver(h, m int32) (int32, error) {
	return sys.stepHalf(h, trace.ActDeliver, 0, m)
}

func (sys *System) HalfHolds(h, m int32) bool {
	for _, hm := range sys.half(h).moves {
		if hm.msg == m {
			return true
		}
	}
	return false
}

// Moves appends the moves enabled in st — World.AppendEnabled's actions,
// in its order — to buf.
func (sys *System) Moves(buf []Move, st State) []Move {
	buf = append(buf, Move{Kind: trace.ActTickS}, Move{Kind: trace.ActTickR})
	for dir := channel.SToR; dir <= channel.RToS; dir++ {
		for _, hm := range sys.half(*st.half(dir)).moves {
			buf = append(buf, Move{hm.kind, dir, hm.msg})
		}
	}
	return buf
}

// Step returns the successor of st under mv: what World.Apply computes
// on a clone — the same local states, sends, writes and errors — from
// the tables. Crash and scramble restarts replace a process instead of
// stepping it and are not tabulated: Apply them to World(st) and Intern
// the result.
func (sys *System) Step(st State, mv Move) (Step, error) {
	next := st
	ev, bySender := int32(0), false // the event, and which process takes it
	switch mv.Kind {
	case trace.ActTickS:
		bySender = true
	case trace.ActTickR:
	case trace.ActDeliver, trace.ActDeliverDup, trace.ActDrop:
		h := next.half(mv.Dir)
		after, err := sys.stepHalf(*h, mv.Kind, mv.Dir, mv.Msg)
		if err != nil {
			return Step{}, err
		}
		*h = after
		if mv.Kind == trace.ActDrop {
			return Step{Next: next}, nil
		}
		ev, bySender = 1+mv.Msg, mv.Dir != channel.SToR
	default:
		return Step{}, fmt.Errorf("sim: %s is not a tabulated move", mv.Kind)
	}
	dir, e := channel.RToS, (*procStep)(nil)
	if bySender {
		dir, e = channel.SToR, stepProc(sys, &sys.senders, st.S, ev)
		next.S = e.next
	} else {
		e = stepProc(sys, &sys.receivers, st.R, ev)
		next.R = e.next
	}
	if e.err != nil {
		return Step{}, e.err
	}
	for _, m := range e.sends {
		out := next.half(dir)
		*out = sys.HalfSend(*out, m)
	}
	return Step{Next: next, Sends: e.sends, SendDir: dir, Writes: e.writes}, nil
}

// Action renders mv as the trace.Action it stands for.
func (sys *System) Action(mv Move) trace.Action {
	act := trace.Action{Kind: mv.Kind}
	if mv.Kind.OnChannel() {
		act.Dir, act.Msg = mv.Dir, sys.msgs[mv.Msg]
	}
	return act
}

// World materialises st: private clones of its four components as a
// world of their own, safe to Apply, with an empty tape at time zero.
func (sys *System) World(st State) *World {
	s := sys.senders.rows[st.S]
	return &World{
		Name:  sys.proto.Name,
		Input: sys.inputs[runOf(s.key)],
		S:     s.obj.Clone(),
		R:     sys.receivers.rows[st.R].obj.Clone(),
		Link:  sys.proto.Link.WithHalves(sys.half(st.SToR).h.Clone(), sys.half(st.RToS).h.Clone()),
		spec:  sys.proto.spec,
	}
}
