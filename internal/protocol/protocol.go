// Package protocol defines the interface between STP protocols and the
// runs model: deterministic sender/receiver state machines driven by
// events (ticks and message deliveries), exactly as in the paper's §2.1 —
// all nondeterminism belongs to the environment, and determinism of the
// processes loses no generality because the correctness criteria quantify
// over every run.
//
// Senders are created from the full input sequence, which makes the
// framework non-uniform in the paper's sense (§2.1, footnote 2): a
// sender's code may depend arbitrarily on X. The impossibility experiments
// therefore apply to this stronger model, as do the paper's theorems.
package protocol

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"seqtx/internal/msg"
	"seqtx/internal/seq"
)

// EventKind distinguishes the two things that can happen to a process.
type EventKind int

// Event kinds.
const (
	// Tick is a spontaneous step: the process acts on its own (retransmit,
	// advance a timeout clock, ...). The paper's processes may move at any
	// point; ticks are how the scheduler grants them steps.
	Tick EventKind = iota + 1
	// Recv delivers one message (§2.2: at most one per step, never in the
	// step it was sent).
	Recv
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case Tick:
		return "tick"
	case Recv:
		return "recv"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is a single step input for a process.
type Event struct {
	Kind EventKind
	Msg  msg.Msg // valid when Kind == Recv
}

// TickEvent returns the spontaneous-step event.
func TickEvent() Event { return Event{Kind: Tick} }

// RecvEvent returns a delivery event for m.
func RecvEvent(m msg.Msg) Event { return Event{Kind: Recv, Msg: m} }

// String renders the event.
func (e Event) String() string {
	if e.Kind == Recv {
		return "recv(" + string(e.Msg) + ")"
	}
	return e.Kind.String()
}

// Sender is the sender process S. Implementations must be deterministic:
// equal states fed equal events produce equal successor states and sends.
//
// Slice ownership: the slices Step returns (sends here, and sends and
// writes on Receiver) are only valid until the same process's next Step.
// Implementations may return shared read-only singletons from interned
// codec tables or reuse scratch buffers across steps — that is what
// keeps the step path allocation-free. Callers therefore either consume
// the slice before stepping again (iterate, route, compare) or copy it;
// they must never mutate it or hold it across steps.
type Sender interface {
	// Step processes one event and returns the messages S sends in this
	// step (each is placed on the S->R half by the scheduler). The
	// returned slice follows the ownership contract above: valid until
	// the next Step, not to be mutated or retained.
	Step(ev Event) (sends []msg.Msg)
	// Moved reports whether the most recent Step changed S's local state:
	// true exactly when AppendKey after that Step differs from AppendKey
	// before it. It is meaningful only right after a Step (a Clone or a
	// Scramble in between says nothing about it), it is not part of the
	// state Key encodes, and it allocates nothing. The live engine clocks
	// fresh sends by it without re-encoding the key.
	Moved() bool
	// Alphabet returns M^S, the finite set of messages S may ever send.
	// An empty alphabet (Size 0) declares "unbounded" (used only by the
	// Stenning baseline, which deliberately leaves the paper's model).
	Alphabet() msg.Alphabet
	// Done reports whether S has transmitted everything and received all
	// the acknowledgements it needs: a quiescence hint for experiments.
	Done() bool
	// Clone returns an independent deep copy (model checking support).
	Clone() Sender
	// Key returns a canonical encoding of the local state s_S; equal keys
	// must imply behaviourally identical states.
	Key() string
}

// Receiver is the receiver process R.
type Receiver interface {
	// Step processes one event and returns messages to send back to S and
	// the data items R writes onto the output tape Y in this step, in
	// order. Writes are irrevocable (safety is judged on them). Both
	// returned slices follow the ownership contract on Sender.Step:
	// valid until the next Step, not to be mutated or retained.
	Step(ev Event) (sends []msg.Msg, writes seq.Seq)
	// Alphabet returns M^R.
	Alphabet() msg.Alphabet
	// Clone returns an independent deep copy.
	Clone() Receiver
	// Key returns a canonical encoding of the local state s_R.
	Key() string
}

// KeyAppender is optionally implemented by Sender and Receiver states
// that can append a canonical binary encoding of their local state
// directly into a caller-provided buffer. The contract mirrors Key: two
// states of the same type produce equal bytes exactly when their Key
// strings are equal. Implementations must be self-delimiting (length-
// prefix every variable-length atom) so that concatenations of encodings
// remain unambiguous, and must not allocate beyond growing buf.
//
// The model checker keys every explored state; EncodeKey is its fast
// path, while Key stays as the human-readable debug view. Every protocol
// in this repository implements it; external or test states may omit it
// and fall back to the Key string via AppendKey.
type KeyAppender interface {
	EncodeKey(buf []byte) []byte
}

// AppendKey appends state's canonical encoding to buf: the binary fast
// path when state implements KeyAppender, otherwise the Key string,
// length-prefixed to keep the result self-delimiting.
func AppendKey(buf []byte, state interface{ Key() string }) []byte {
	if ka, ok := state.(KeyAppender); ok {
		return ka.EncodeKey(buf)
	}
	s := state.Key()
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Scrambler is optionally implemented by Sender and Receiver states whose
// local state can be overwritten with an arbitrary type-valid value — the
// self-stabilization adversary of the Dolev–Dubois–Potop-Butucaru–Tixeuil
// line: a process restarts (or is hit by a transient fault) into *any*
// state its variables can hold, not just the initial one.
//
// Scramble must keep the state structurally sound (no out-of-range slice
// indices, no nil maps the Step code dereferences) while corrupting every
// logically meaningful field within its natural domain; it must be
// deterministic in the stream drawn from rng so a scrambled state is
// reproducible from the seed alone. Protocol invariants (for example
// "acks never exceeds the threshold") are exactly what Scramble is meant
// to break — a stabilizing protocol recovers anyway, a non-stabilizing
// one is refuted by the checker.
type Scrambler interface {
	Scramble(rng *rand.Rand)
}

// ScrambleState scrambles state with a fresh seeded RNG when it
// implements Scrambler and reports whether it did. Callers that need an
// amnesia fallback (restart into the initial state) rebuild the process
// first and then call this; a false return means the rebuilt initial
// state was kept as-is.
func ScrambleState(state any, seed int64) bool {
	sc, ok := state.(Scrambler)
	if !ok {
		return false
	}
	sc.Scramble(rand.New(rand.NewSource(seed)))
	return true
}

// Spec packages a protocol family: constructors plus metadata. The
// receiver constructor takes no input (Property 1a: R's initial state is
// the same in all runs — R must not know X in advance); the sender
// constructor takes the whole input sequence.
//
// Every fleet session builds one sender and one receiver, so the
// protocols of this repository carve those halves, and the slices they
// hold, from slab.Slabs their New declares beside the Spec: a session
// costs a share of a chunk, not an allocation a struct (archtest row
// halves-from-slabs). The sender still keeps a private copy of its input.
// The price is retention: a live half keeps its whole chunk reachable
// (the larger of 256 values of its type and 16 KiB), and with it
// everything the dead halves carved beside it still point to — their
// input copies, flags, slots and windows, in chunks of the other slabs.
// One long-lived session among churning ones can so keep a chunk's worth
// of others' state alive: 78–205 KB at 8 items, ≈ 2.1–2.3 MB at 1 024
// (EXPERIMENTS.md, PR 51). The constructors may run on several
// goroutines at once.
type Spec struct {
	// Name identifies the protocol (registry key).
	Name string
	// Description is a one-line summary for CLI listings.
	Description string
	// NewSender builds S for the given input. It returns an error if the
	// input is outside the protocol's allowable set X.
	NewSender func(input seq.Seq) (Sender, error)
	// NewReceiver builds R in its unique initial state.
	NewReceiver func() (Receiver, error)
}

// Validate checks the spec is fully populated.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("protocol: spec missing name")
	}
	if s.NewSender == nil || s.NewReceiver == nil {
		return fmt.Errorf("protocol: spec %q missing constructors", s.Name)
	}
	return nil
}
