package wire

import (
	"sync"
	"sync/atomic"

	"seqtx/internal/obs"
)

// Inproc is the in-process transport. Under a mux it pushes: Send and
// SendBatch hand the frames to the opposite end's Mux.arrive on the sending
// goroutine — no copy, no goroutine between a session's two ends — and a
// full inbox drops (backpressure is loss, which the protocols survive).
// Its two buffered channels, one per direction, serve only a consumer with
// no mux: a pooled blob per call (one batch blob per burst, as writev), and
// a full buffer drops it.
type Inproc struct {
	toReceiver chan []byte
	toSender   chan []byte
	dropped    *obs.Counter
	mux        atomic.Pointer[Mux] // set by pushTo

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

// Send implements Transport: a burst of one.
func (t *Inproc) Send(from End, frame []byte) error {
	return t.SendBatch(from, [][]byte{frame})
}

// SendBatch implements BatchSender: under a mux the burst arrives in one
// call; otherwise each blob that fits is one non-blocking handoff, and a
// full buffer drops a blob's frames together — channel loss.
func (t *Inproc) SendBatch(from End, frames [][]byte) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return ErrClosed
	}
	if m := t.mux.Load(); m != nil {
		m.arrive(from.Opposite(), frames...)
		return nil
	}
	ch := t.toReceiver
	if from == ReceiverEnd {
		ch = t.toSender
	}
	for start := 0; start < len(frames); {
		n, size := batchFit(frames[start:], blobCap)
		var blob []byte
		if n == 1 {
			blob = append(getBuf(len(frames[start])), frames[start]...)
		} else {
			blob = AppendBatch(getBuf(size), frames[start:start+n])
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

// pushTo implements pusher.
func (t *Inproc) pushTo(m *Mux) bool { t.mux.Store(m); return true }

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
