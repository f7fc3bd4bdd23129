package wire

import (
	"sync/atomic"

	"seqtx/internal/msg"
)

// inbox is a session's bounded inbound message queue, built as a
// single-producer/single-consumer ring: the one producer is whoever holds
// the arrival lock of the inbox's end (Mux.arrive), and exactly one loop
// worker drains it. That invariant lets both sides run lock-free — a stage
// is an atomic load and a slot store, a publish one atomic store per
// burst; a drain is one pass over the published slots. The consumer never
// blocks on the inbox: the arrival wakes the session's worker through its
// ready queue after publishing.
//
// The bound is limit, fixed at init; only the memory behind it is made on
// demand. An inbox starts on its inline ring of inlineSlots (a
// stop-and-wait session over a clean link never holds more than one or two
// frames), and the first stage that finds that ring full swaps in one
// limit-slot ring and copies the unread run across. The swap is the
// producer's alone: it stores the new ring before any slot write or tail
// publish that uses it, and drain loads tail before the ring, so a drain
// reads its published run from whichever ring holds it.
type inbox struct {
	ring   atomic.Pointer[[]msg.Msg] // the live ring: &small, then &grown; len is a power of two
	small  []msg.Msg                 // inline[:min(limit, inlineSlots)]
	grown  []msg.Msg                 // limit slots, made by the first overflow
	inline [inlineSlots]msg.Msg
	limit  uint64 // the bound: at most this many staged, unread messages

	// owner is the session this inbox feeds. An arrival uses it after a
	// publish to wake the session's worker (a no-op until the session
	// has been handed to the loop).
	owner *Session

	head   atomic.Uint64 // next slot to read (consumer-owned)
	tail   atomic.Uint64 // next slot to write (producer-owned)
	closed atomic.Bool

	// stagedTail and dirty are plain producer-owned fields backing the
	// stage/publish split: stage writes slots and advances stagedTail
	// without publishing, publish folds the staged run into tail with one
	// atomic store. Batching the publish matters because an atomic store
	// is a full fence (XCHG on amd64) — paying it once per burst instead
	// of once per message is one of the data plane's larger savings.
	stagedTail uint64
	dirty      bool // set by the producer while the inbox has staged messages
}

// inlineSlots is the inline ring's size: the messages an inbox holds
// before its first overflow allocates anything.
const inlineSlots = 4

// stage outcomes, mapped to the mux's drop-cause counters.
type pushResult int

const (
	pushOK pushResult = iota
	pushFull
	pushClosed
)

// init bounds an inbox (a Session holds its two by value) at limit
// messages, rounded up to a power of two, and points it at its inline
// ring. It allocates nothing.
func (q *inbox) init(limit int) {
	size := 1
	for size < limit {
		size <<= 1
	}
	q.limit = uint64(size)
	q.small = q.inline[:min(size, inlineSlots)]
	q.ring.Store(&q.small)
}

// stage writes m into the next free slot without making it visible to
// the consumer; a later publish releases the whole staged run at once.
// A full inbox drops (the live analogue of channel loss); a closed
// inbox means the session already finished. Only the holder of the end's
// arrival lock may call stage, and it must publish every staged run
// before it lets the lock go.
func (q *inbox) stage(m msg.Msg) pushResult {
	if q.closed.Load() {
		return pushClosed
	}
	t, h := q.stagedTail, q.head.Load()
	if t-h >= q.limit {
		return pushFull
	}
	r := *q.ring.Load()
	if t-h >= uint64(len(r)) {
		r = q.grow(r, h)
	}
	r[t&uint64(len(r)-1)] = m
	q.stagedTail = t + 1
	return pushOK
}

// grow swaps the full inline ring old for one limit-slot ring, copying
// the run [h, stagedTail) the consumer has not yet released — a superset
// of whatever it reads next, since only it moves head. The new ring is
// stored before stage writes a slot of it, and so before any publish.
func (q *inbox) grow(old []msg.Msg, h uint64) []msg.Msg {
	q.grown = make([]msg.Msg, q.limit)
	for i := h; i != q.stagedTail; i++ {
		q.grown[i&(q.limit-1)] = old[i&uint64(len(old)-1)]
	}
	q.ring.Store(&q.grown)
	return q.grown
}

// publish makes every staged message visible to the consumer and
// clears the producer's dirty mark.
func (q *inbox) publish() {
	q.dirty = false
	if q.stagedTail != q.tail.Load() {
		q.tail.Store(q.stagedTail) // publishes the slot writes to the consumer
	}
}

// drain moves every published message into dst (reusing its capacity)
// and frees the slots. Only the session's worker may call drain. It
// loads tail before the ring: a run published after a grow is read from
// the grown ring, one published before it from either.
func (q *inbox) drain(dst []msg.Msg) []msg.Msg {
	dst = dst[:0]
	h := q.head.Load()
	t := q.tail.Load()
	r := *q.ring.Load()
	mask := uint64(len(r) - 1)
	for ; h != t; h++ {
		dst = append(dst, r[h&mask])
	}
	q.head.Store(h) // releases the slots back to the producer
	return dst
}

// close marks the inbox closed; later stages report pushClosed (counted
// by arrive as late frames).
func (q *inbox) close() { q.closed.Store(true) }
