// Package slab is the repository's one chunked allocator: a leaf, so
// that both the protocols (package protocol and its specs) and the
// channel halves a model checker files (package channel) can carve from
// it.
package slab

import (
	"sync"
	"unsafe"
)

// Slab hands out values of T carved from shared chunks, so a protocol's
// constructors pay one allocation a chunk rather than one a half: every
// fleet session builds a sender and a receiver (§2.1), and a wave builds
// hundreds of sessions. A model checker's sim.System files the states it
// meets the same way (channel.Store).
//
// Chunks are fresh and never reused: a value handed out is zeroed, and
// nothing the slab does later writes to it again. They grow from 8
// values, doubling, up to the larger of 256 values and 16 KiB; a request
// bigger than that gets its own allocation. A value keeps its whole chunk
// alive while it is reachable, and with the chunk whatever its other
// values point to. A mutex guards the slab, because a Spec's
// constructors may run on several goroutines at once.
//
// The zero Slab is ready to use.
type Slab[T any] struct {
	mu   sync.Mutex
	free []T // the unused rest of the current chunk
	size int // the length of the current chunk (0 before the first)
}

// Slab chunk sizes: the first chunk's length, and the bounds of the last.
const (
	slabFirst    = 8
	slabMaxVals  = 256
	slabMaxBytes = 16 << 10
)

// limit is the longest chunk: max(256 values, 16 KiB of them).
func (s *Slab[T]) limit() int {
	var zero T
	if size := int(unsafe.Sizeof(zero)); size > 0 && slabMaxBytes/size > slabMaxVals {
		return slabMaxBytes / size
	}
	return slabMaxVals
}

// reserve makes the current chunk hold at least n free values, n no more
// than limit, by starting a new chunk when it does not.
func (s *Slab[T]) reserve(n, limit int) {
	if n <= len(s.free) {
		return
	}
	if s.size == 0 {
		s.size = slabFirst
	} else {
		s.size *= 2
	}
	for s.size < n {
		s.size *= 2
	}
	s.size = min(s.size, limit)
	s.free = make([]T, s.size)
}

// New returns a pointer to a zeroed T.
func (s *Slab[T]) New() *T {
	limit := s.limit()
	s.mu.Lock()
	s.reserve(1, limit)
	p := &s.free[0]
	s.free = s.free[1:]
	s.mu.Unlock()
	return p
}

// Make returns a zeroed slice of length and capacity n: an append past n
// reallocates and never reaches the values handed out after it.
func (s *Slab[T]) Make(n int) []T {
	limit := s.limit()
	if n == 0 || n > limit {
		return make([]T, n)
	}
	s.mu.Lock()
	s.reserve(n, limit)
	v := s.free[:n:n]
	s.free = s.free[n:]
	s.mu.Unlock()
	return v
}

// Clone returns a copy of src carved from the slab, nil for nil.
func (s *Slab[T]) Clone(src []T) []T {
	if src == nil {
		return nil
	}
	dst := s.Make(len(src))
	copy(dst, src)
	return dst
}
