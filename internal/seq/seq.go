// Package seq defines data items, data sequences, and sets of allowable
// sequences for the sequence transmission problem (STP).
//
// In the paper's model (Wang & Zuck 1989, §2.1) the sender reads a sequence
// X of data items drawn from a finite domain D and must communicate it to
// the receiver. The set of allowable input sequences is called X (here:
// Set). Sequences may be finite; the paper also admits infinite sequences,
// which this implementation approximates by finite prefixes of configurable
// length.
package seq

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Item is a single data item from a finite domain D: a small non-negative
// integer, printed as its number.
type Item int

// Seq is a finite sequence of data items (an input tape X or output tape Y).
type Seq []Item

// Clone returns an independent copy of s.
func (s Seq) Clone() Seq {
	if s == nil {
		return nil
	}
	cp := make(Seq, len(s))
	copy(cp, s)
	return cp
}

// Equal reports whether s and t are item-wise equal.
func (s Seq) Equal(t Seq) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// IsPrefixOf reports whether s is a (not necessarily proper) prefix of t.
// This is the paper's safety relation: at all times Y must be a prefix of X.
func (s Seq) IsPrefixOf(t Seq) bool {
	if len(s) > len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// HasRepetition reports whether any item occurs more than once in s.
// Repetition-free sequences are the ones counted by alpha(m) and are
// exactly the inputs accepted by the paper's tight protocol (§3, end).
func (s Seq) HasRepetition() bool {
	seen := make(map[Item]struct{}, len(s))
	for _, x := range s {
		if _, ok := seen[x]; ok {
			return true
		}
		seen[x] = struct{}{}
	}
	return false
}

// String renders s as "x1.x2.x3" using raw item numbers ("ε" if empty).
func (s Seq) String() string {
	if len(s) == 0 {
		return "ε"
	}
	parts := make([]string, len(s))
	for i, x := range s {
		parts[i] = fmt.Sprintf("%d", int(x))
	}
	return strings.Join(parts, ".")
}

// Key returns a canonical map key for s.
func (s Seq) Key() string { return s.String() }

// EncodeKey appends a self-delimiting binary encoding of s to buf and
// returns the extended slice: the length as a uvarint followed by the
// items as varints. Equal sequences produce equal bytes and vice versa —
// the allocation-free counterpart of Key for the model checker's state
// index.
func (s Seq) EncodeKey(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	for _, v := range s {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

// PaperLength returns the paper's |X|: k+1 for a sequence of k items
// (so the empty sequence has length 1). The paper uses this convention so
// that "i < |X|" ranges over the positions 1..k.
func (s Seq) PaperLength() int { return len(s) + 1 }
