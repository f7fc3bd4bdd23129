package wire

import "sync"

// Buffer pooling for the data plane. Two size classes cover everything
// the hot path handles: small buffers for single frames (alphabet
// payloads are tiny) and blob buffers for batch datagrams. Steady-state
// send/receive recycles these instead of allocating, so the per-frame
// cost is an append into warm memory rather than a malloc + GC sweep.
//
// Ownership contract: a buffer obtained from the pool is owned by exactly
// one holder at a time. A transport with no mux attached puts the frames
// it received onto its Recv channels; whoever takes them off (Mux.route,
// the pump for a transport that does not push) releases them once the
// frames have arrived. Code outside the hot path (tests draining Recv
// directly) may simply drop buffers — the pool tolerates non-return, it
// just falls back to allocating.
const (
	// smallBufCap comfortably holds any single frame: header, a
	// maximum-length session varint, and a typical alphabet payload.
	smallBufCap = 256
	// blobCap holds one maximum batch datagram (the UDP payload limit).
	blobCap = 64 * 1024
)

// The pools hold array pointers, not slice headers: an array pointer
// stores directly in the pool's interface slot and slices back out with
// plain pointer arithmetic, so a get/put cycle is allocation-free. A
// *[]byte box, by contrast, escapes on every Put — one hidden allocation
// per recycled buffer, which on the UDP read loop was the last malloc on
// the path.
var smallBufPool = sync.Pool{
	New: func() any { return new([smallBufCap]byte) },
}

var blobPool = sync.Pool{
	New: func() any { return new([blobCap]byte) },
}

// getBuf returns an empty pooled buffer with capacity for at least n
// bytes. Requests beyond blobCap fall back to a plain allocation (such
// buffers are silently dropped by putBuf).
func getBuf(n int) []byte {
	switch {
	case n <= smallBufCap:
		return smallBufPool.Get().(*[smallBufCap]byte)[:0]
	case n <= blobCap:
		return blobPool.Get().(*[blobCap]byte)[:0]
	default:
		return make([]byte, 0, n)
	}
}

// putBuf returns a buffer obtained from getBuf to its pool. Buffers whose
// capacity matches neither class (grown by append, or oversized) are
// dropped for the GC.
func putBuf(b []byte) {
	switch cap(b) {
	case smallBufCap:
		smallBufPool.Put((*[smallBufCap]byte)(b[:smallBufCap]))
	case blobCap:
		blobPool.Put((*[blobCap]byte)(b[:blobCap]))
	}
}
