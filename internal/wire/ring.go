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
type inbox struct {
	slots []msg.Msg // len is a power of two
	mask  uint64

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

// stage outcomes, mapped to the mux's drop-cause counters.
type pushResult int

const (
	pushOK pushResult = iota
	pushFull
	pushClosed
)

// init sizes an inbox (a Session holds its two by value) for at least
// limit messages.
func (q *inbox) init(limit int) {
	size := 1
	for size < limit {
		size <<= 1
	}
	q.slots = make([]msg.Msg, size)
	q.mask = uint64(size - 1)
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
	t := q.stagedTail
	if t-q.head.Load() >= uint64(len(q.slots)) {
		return pushFull
	}
	q.slots[t&q.mask] = m
	q.stagedTail = t + 1
	return pushOK
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
// and frees the slots. Only the session's worker may call drain.
func (q *inbox) drain(dst []msg.Msg) []msg.Msg {
	dst = dst[:0]
	h := q.head.Load()
	t := q.tail.Load()
	for ; h != t; h++ {
		dst = append(dst, q.slots[h&q.mask])
	}
	q.head.Store(h) // releases the slots back to the producer
	return dst
}

// close marks the inbox closed; later stages report pushClosed (counted
// by arrive as late frames).
func (q *inbox) close() { q.closed.Store(true) }
