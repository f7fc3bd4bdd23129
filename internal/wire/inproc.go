package wire

import (
	"sync"

	"seqtx/internal/obs"
)

// Inproc is the in-process transport: two buffered Go channels, one per
// direction. Delivery order is whatever the goroutine scheduler makes of
// it, and a full buffer drops the frame (backpressure surfaces as loss,
// which the protocols must survive anyway) — so even in-process, the link
// honestly behaves like an unreliable channel rather than an idealized
// FIFO pipe.
//
// The channels carry wire blobs: a bare frame per Send, or one batch blob
// per SendBatch — the in-process counterpart of writev, paying one
// channel handoff for a whole burst. All copies land in pooled buffers;
// steady-state traffic allocates nothing.
type Inproc struct {
	toReceiver chan []byte
	toSender   chan []byte
	dropped    *obs.Counter

	mu     sync.RWMutex
	closed bool
}

var _ Transport = (*Inproc)(nil)
var _ BatchSender = (*Inproc)(nil)

// DefaultInprocCapacity is the per-direction blob buffer used by
// NewInproc when capacity is not positive.
const DefaultInprocCapacity = 1024

// NewInproc returns an in-process transport with the given per-direction
// buffer capacity. reg (which may be nil) receives the backpressure-drop
// counter.
func NewInproc(capacity int, reg *obs.Registry) *Inproc {
	if capacity <= 0 {
		capacity = DefaultInprocCapacity
	}
	return &Inproc{
		toReceiver: make(chan []byte, capacity),
		toSender:   make(chan []byte, capacity),
		dropped:    reg.Counter(`wire_frames_dropped_total{cause="backpressure"}`),
	}
}

// Name implements Transport.
func (t *Inproc) Name() string { return "inproc" }

// enqueue copies already-encoded blob bytes into a pooled buffer and
// performs the non-blocking handoff toward the opposite end, counting
// nFrames drops if the buffer is full. Callers hold the read lock.
func (t *Inproc) enqueue(from End, blob []byte, nFrames int) {
	cp := append(getBuf(len(blob)), blob...)
	ch := t.toReceiver
	if from == ReceiverEnd {
		ch = t.toSender
	}
	select {
	case ch <- cp:
	default:
		t.dropped.Add(int64(nFrames))
		putBuf(cp)
	}
}

// Send implements Transport: a non-blocking enqueue toward the opposite
// end. A full buffer drops the frame and counts it.
func (t *Inproc) Send(from End, frame []byte) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return ErrClosed
	}
	t.enqueue(from, frame, 1)
	return nil
}

// SendBatch implements BatchSender: the whole burst is packed into batch
// blobs (one channel handoff per blob) and enqueued in order. A full
// buffer drops a blob's worth of frames at once — an ordered burst lost
// together, which the protocols tolerate as channel loss.
func (t *Inproc) SendBatch(from End, frames [][]byte) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return ErrClosed
	}
	for start := 0; start < len(frames); {
		n, size := batchFit(frames[start:], blobCap)
		if n == 1 {
			t.enqueue(from, frames[start], 1)
			start++
			continue
		}
		blob := AppendBatch(getBuf(size), frames[start:start+n])
		ch := t.toReceiver
		if from == ReceiverEnd {
			ch = t.toSender
		}
		select {
		case ch <- blob:
		default:
			t.dropped.Add(int64(n))
			putBuf(blob)
		}
		start += n
	}
	return nil
}

// batchFit returns how many leading frames fit in one blob of at most
// limit bytes (and at most maxBatchFrames), and a size estimate covering
// their batch encoding. At least one frame always fits (a lone oversized
// frame gets its own blob).
func batchFit(frames [][]byte, limit int) (n, size int) {
	total := batchOverhead(len(frames))
	for i, f := range frames {
		if i > 0 && (total+len(f) > limit || i >= maxBatchFrames) {
			return i, total
		}
		total += len(f)
	}
	return len(frames), total
}

// Recv implements Transport.
func (t *Inproc) Recv(at End) <-chan []byte {
	if at == SenderEnd {
		return t.toSender
	}
	return t.toReceiver
}

// Close implements Transport.
func (t *Inproc) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	close(t.toReceiver)
	close(t.toSender)
	return nil
}
