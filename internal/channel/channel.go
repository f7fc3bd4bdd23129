// Package channel implements the unreliable channel models of the paper
// (§2.2): bidirectional links whose directional halves can reorder and
// duplicate messages (STP(dup)), reorder and delete messages (STP(del)),
// only reorder (a fairness-idealized del channel), or behave as a FIFO
// queue with loss and duplication (the classic data-link substrate used by
// the alternating-bit protocol, for the §5 comparisons).
//
// A Half exposes exactly the paper's dlvrble vector: for dup channels a
// 0/1 flag per message ("was mu ever sent"), for del channels the number
// of copies sent and not yet delivered. All nondeterminism (which message
// to deliver, what to drop) is exercised by the adversary in package sim;
// a Half only answers what is currently possible.
package channel

import (
	"fmt"

	"seqtx/internal/msg"
)

// Kind identifies a channel model.
type Kind int

// Channel model kinds.
const (
	// KindDup reorders and duplicates: once sent, a message can be
	// delivered any number of times and never disappears.
	KindDup Kind = iota + 1
	// KindDel reorders and deletes: each sent copy can be delivered at
	// most once, and the adversary may silently drop copies.
	KindDel
	// KindReorder only reorders: each copy is delivered exactly once,
	// eventually. (A del channel restricted to its fair behaviours.)
	KindReorder
	// KindFIFO preserves order but may lose and duplicate (the [BSW69]
	// data-link substrate; delivery is only possible from the queue head).
	KindFIFO
	// KindDupDel reorders, duplicates, AND deletes — the full fault menu
	// of the paper's introduction. Dropping erases a message type.
	KindDupDel
	// KindBounded reorders and deletes under a finite capacity: at most
	// DefaultBoundedCap copies in flight, overflow sends are lost. The
	// channel model of the self-stabilization literature (every bounded
	// run is a del run, but corrupted-state recovery is only provable
	// here, where "at most c stale copies" is a channel property).
	KindBounded
)

// String returns the conventional name of the kind.
func (k Kind) String() string {
	switch k {
	case KindDup:
		return "dup"
	case KindDel:
		return "del"
	case KindReorder:
		return "reorder"
	case KindFIFO:
		return "fifo"
	case KindDupDel:
		return "dup+del"
	case KindBounded:
		return "bounded"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Half is one direction of a bidirectional link. Implementations are
// deterministic given the operation sequence; cloning and canonical keys
// support the model checker.
type Half interface {
	// Kind returns the channel model.
	Kind() Kind
	// Send adds one copy of m to the channel.
	Send(m msg.Msg)
	// Deliverable returns the current dlvrble vector: the multiset of
	// messages the environment could deliver next. For dup halves every
	// count is 1 (delivery never exhausts); for FIFO halves only the head
	// appears. The result is a fresh copy.
	Deliverable() msg.Counts
	// Support walks the support of the dlvrble vector in place: it returns
	// the i-th distinct deliverable message in ascending order, and false
	// once i is past the last one. It enumerates exactly
	// Deliverable().Support() without building the vector — the model
	// checker asks for every state's enabled actions.
	Support(i int) (msg.Msg, bool)
	// CanDeliver reports whether m could be delivered now.
	CanDeliver(m msg.Msg) bool
	// Deliver removes (where applicable) and returns confirmation that one
	// copy of m was handed to the recipient. It is an error if
	// !CanDeliver(m).
	Deliver(m msg.Msg) error
	// CanDrop reports whether the model permits silently deleting a copy
	// of m now.
	CanDrop(m msg.Msg) bool
	// Drop silently deletes one copy of m. It is an error if !CanDrop(m).
	Drop(m msg.Msg) error
	// SentTotal returns the total number of Send calls so far.
	SentTotal() int
	// Clone returns an independent deep copy.
	Clone() Half
	// CopyFrom makes the receiver an exact copy of src, which has the
	// receiver's concrete type, in the receiver's own storage: a Clone
	// into a half that already exists. src is only read.
	CopyFrom(src Half)
	// Key returns a canonical encoding of the half's state, equal for
	// behaviourally identical states.
	Key() string
	// EncodeKey appends a canonical, self-delimiting binary encoding of
	// the half's state to buf and returns the extended slice. It must
	// induce exactly the same equivalence on states as Key — equal bytes
	// iff equal Key strings — while allocating nothing beyond buf growth.
	// This is the model checker's fast path; Key stays as the
	// human-readable debug view.
	EncodeKey(buf []byte) []byte
}

// compile-time conformance checks live with each implementation.

// New returns an empty half of the given kind with default options
// (FIFO halves allow both loss and duplication).
func New(k Kind) (Half, error) {
	switch k {
	case KindDup:
		return NewDup(), nil
	case KindDel:
		return NewDel(), nil
	case KindReorder:
		return NewReorder(), nil
	case KindFIFO:
		return NewFIFO(true, true), nil
	case KindDupDel:
		return NewDupDel(), nil
	case KindBounded:
		return NewBounded(DefaultBoundedCap), nil
	default:
		return nil, fmt.Errorf("channel: unknown kind %d", int(k))
	}
}
