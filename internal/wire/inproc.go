package wire

import (
	"sync"
	"sync/atomic"

	"seqtx/internal/obs"
)

// Inproc is the in-process transport. Under a mux it pushes: Send and
// SendBatch hand the frames to the opposite end's Mux.arrive on the sending
// goroutine — no copy, no channel, no goroutine between a session's two
// ends — and a full inbox drops (backpressure is loss, which the protocols
// survive). Only a consumer with no mux gets channels: the first mux-less
// Recv or send makes two buffered ones, one per direction, which carry a
// pooled blob per call (one batch blob per burst, as writev), and a full
// buffer drops the blob.
type Inproc struct {
	capacity int
	dropped  *obs.Counter
	mux      atomic.Pointer[Mux] // set by pushTo

	mu         sync.RWMutex
	closed     bool
	toReceiver chan []byte // made on first mux-less use, under mu
	toSender   chan []byte
}

var _ Transport = (*Inproc)(nil)
var _ BatchSender = (*Inproc)(nil)

// DefaultInprocCapacity is the per-direction blob buffer used by
// NewInproc when capacity is not positive.
const DefaultInprocCapacity = 1024

// NewInproc returns an in-process transport with the given per-direction
// buffer capacity, which its channels get if a mux-less use makes them.
// reg (which may be nil) receives the backpressure-drop counter.
func NewInproc(capacity int, reg *obs.Registry) *Inproc {
	if capacity <= 0 {
		capacity = DefaultInprocCapacity
	}
	return &Inproc{
		capacity: capacity,
		dropped:  reg.Counter(`wire_frames_dropped_total{cause="backpressure"}`),
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
	if m := t.mux.Load(); m != nil {
		t.mu.RLock()
		defer t.mu.RUnlock()
		if t.closed {
			return ErrClosed
		}
		m.arrive(from.Opposite(), frames...)
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	ch := t.chanTo(from.Opposite())
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

// Recv implements Transport. After Close it returns a closed channel.
func (t *Inproc) Recv(at End) <-chan []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed && t.toReceiver == nil {
		return closedBlobs
	}
	return t.chanTo(at)
}

// closedBlobs is what Recv returns after a Close that found no channels.
var closedBlobs = func() chan []byte {
	ch := make(chan []byte)
	close(ch)
	return ch
}()

// chanTo returns the channel into end at, making both on first use. The
// caller holds mu.
func (t *Inproc) chanTo(at End) chan []byte {
	if t.toReceiver == nil {
		t.toReceiver = make(chan []byte, t.capacity)
		t.toSender = make(chan []byte, t.capacity)
	}
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
	if t.toReceiver != nil {
		close(t.toReceiver)
		close(t.toSender)
	}
	return nil
}
