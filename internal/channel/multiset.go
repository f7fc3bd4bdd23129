package channel

import (
	"cmp"
	"encoding/binary"
	"slices"

	"seqtx/internal/msg"
)

// copies is one entry of a multiset: n > 0 in-flight copies of m.
type copies struct {
	m msg.Msg
	n int
}

// multiset is the in-flight multiset of the deleting halves (Del,
// Bounded), kept as a slice sorted by message with no zero entries. A
// sorted slice beats a map here (Dup keeps its sent-set the same way):
// the model checker copies a half whenever an explored transition writes
// to it and keys the result right after, so cloning must be one slice
// copy and canonical iteration must be free. Lookups are binary searches
// over a support bounded by the protocol alphabet size.
//
// It is the slice counterpart of msg.Counts and encodes to the same
// bytes, so swapping one for the other cannot merge or split states.
type multiset []copies

func (s multiset) find(m msg.Msg) (int, bool) {
	return slices.BinarySearchFunc(s, m, func(e copies, m msg.Msg) int {
		return cmp.Compare(e.m, m)
	})
}

// get returns the count of m (zero if absent).
func (s multiset) get(m msg.Msg) int {
	if i, ok := s.find(m); ok {
		return s[i].n
	}
	return 0
}

// add inserts one copy of m.
func (s *multiset) add(m msg.Msg) {
	i, ok := s.find(m)
	if ok {
		(*s)[i].n++
		return
	}
	*s = slices.Insert(*s, i, copies{m, 1})
}

// remove takes out one copy of m, reporting whether there was one.
func (s *multiset) remove(m msg.Msg) bool {
	i, ok := s.find(m)
	if !ok {
		return false
	}
	if (*s)[i].n--; (*s)[i].n == 0 {
		*s = slices.Delete(*s, i, i+1)
	}
	return true
}

// total returns the number of copies in flight.
func (s multiset) total() int {
	total := 0
	for _, e := range s {
		total += e.n
	}
	return total
}

// support returns the i-th distinct message in ascending order.
func (s multiset) support(i int) (msg.Msg, bool) {
	if i >= len(s) {
		return "", false
	}
	return s[i].m, true
}

// counts returns the multiset as a fresh msg.Counts.
func (s multiset) counts() msg.Counts {
	c := make(msg.Counts, len(s))
	for _, e := range s {
		c[e.m] = e.n
	}
	return c
}

// encodeKey appends exactly the bytes msg.Counts.EncodeKey emits for the
// same multiset: the entry count, then the (message, count) pairs in
// ascending message order.
func (s multiset) encodeKey(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	for _, e := range s {
		buf = msg.AppendMsg(buf, e.m)
		buf = binary.AppendVarint(buf, int64(e.n))
	}
	return buf
}
