// Package sim implements the runs model of the paper (§2.2): global
// states (environment, sender, receiver), scheduler actions, adversaries
// that resolve the environment's nondeterminism, and fairness policies.
// A World is one global state; applying actions walks a run.
package sim

import (
	"encoding/binary"
	"fmt"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/trace"
)

// World is a global state (s_E, s_S, s_R) plus the run bookkeeping: the
// input tape X, the output tape Y written so far, and the step clock.
type World struct {
	Name   string
	Input  seq.Seq
	Output seq.Seq
	Time   int

	S    protocol.Sender
	R    protocol.Receiver
	Link *channel.Link

	// spec keeps the constructors so crash-restart faults can rebuild a
	// process in its initial state (zero value on hand-assembled worlds,
	// which therefore reject crash actions).
	spec protocol.Spec

	// SafetyViolation holds the first detected violation of "Y is a
	// prefix of X" (nil while safe). The world keeps stepping after a
	// violation so that counterexample traces show the damage.
	SafetyViolation error

	// Trace, when non-nil, records every applied action.
	Trace *trace.Trace
}

// New assembles a world from a protocol spec, an input sequence, and a
// link. The protocol alphabets are enforced on the link: a send outside
// M^S or M^R is a hard error (the paper's finiteness assumption), except
// for protocols that declare an empty alphabet (unbounded baselines).
func New(spec protocol.Spec, input seq.Seq, link *channel.Link) (*World, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s, err := spec.NewSender(input)
	if err != nil {
		return nil, fmt.Errorf("sim: building sender: %w", err)
	}
	r, err := spec.NewReceiver()
	if err != nil {
		return nil, fmt.Errorf("sim: building receiver: %w", err)
	}
	if s.Alphabet().Size() > 0 || r.Alphabet().Size() > 0 {
		link.EnforceAlphabets(s.Alphabet(), r.Alphabet())
	}
	return &World{
		Name:  spec.Name,
		Input: input.Clone(),
		S:     s,
		R:     r,
		Link:  link,
		spec:  spec,
	}, nil
}

// StartTrace attaches an empty trace recorder.
func (w *World) StartTrace() {
	w.Trace = &trace.Trace{Name: w.Name, Input: w.Input.Clone()}
}

// Enabled enumerates every action the environment could take now:
// spontaneous steps for both processes, a delivery of each deliverable
// message on each half, FIFO duplications, and drops where the model
// allows deletion. This is the paper's Property 1b made executable —
// every deliverable message has a run in which it is delivered next, and
// there is always a run in which nothing is delivered (the ticks).
func (w *World) Enabled() []trace.Action {
	return w.AppendEnabled(nil)
}

// AppendEnabled is Enabled with a caller-provided buffer: it appends the
// enabled actions to acts (in the same canonical order) and returns the
// extended slice. Exploration loops pass a reused buffer to avoid one
// allocation per expanded state.
func (w *World) AppendEnabled(acts []trace.Action) []trace.Action {
	acts = append(acts, trace.TickS(), trace.TickR())
	for dir := channel.SToR; dir <= channel.RToS; dir++ {
		halfMoves(w.Link.Half(dir), func(kind trace.ActKind, m msg.Msg) {
			acts = append(acts, trace.Action{Kind: kind, Dir: dir, Msg: m})
		})
	}
	return acts
}

// Apply executes one scheduler action: it performs the channel operation,
// steps the affected process, routes its sends onto the link, appends R's
// writes to Y, checks safety online, and advances the clock.
func (w *World) Apply(act trace.Action) error {
	ev, byS := protocol.TickEvent(), act.Kind == trace.ActTickS // the event, and whether S takes it
	switch act.Kind {
	case trace.ActTickS, trace.ActTickR:
	case trace.ActDeliver, trace.ActDeliverDup, trace.ActDrop:
		if err := halfOp(w.Link.Half(act.Dir), act.Kind, act.Dir, act.Msg); err != nil {
			return err
		}
		ev, byS = protocol.RecvEvent(act.Msg), act.Dir == channel.RToS
	case trace.ActCrashS, trace.ActCrashR, trace.ActScrambleS, trace.ActScrambleR:
		s, r, err := restart(w.spec, w.Input, act)
		if err != nil {
			return err
		}
		if s != nil {
			w.S = s
		} else {
			w.R = r
		}
	default:
		return fmt.Errorf("sim: unknown action kind %d", int(act.Kind))
	}
	var (
		sends  []msg.Msg
		writes seq.Seq
		err    error
	)
	switch {
	case act.Kind >= trace.ActDrop: // a drop or a restart: no process steps
	case byS:
		sends = w.S.Step(ev)
		err = w.route(channel.SToR, sends, nil)
	default:
		sends, writes = w.R.Step(ev)
		err = w.routeReceiver(sends, writes)
	}
	if err != nil {
		return err
	}
	if w.Trace != nil {
		// Step's returned slices are only valid until the process's next
		// Step (interned protocols return shared singletons and reused
		// scratch buffers), so the trace takes copies of both.
		var sendsCopy []msg.Msg
		if len(sends) > 0 {
			sendsCopy = append([]msg.Msg(nil), sends...)
		}
		w.Trace.Append(trace.Entry{Time: w.Time, Act: act, Sends: sendsCopy, Writes: writes.Clone()})
	}
	w.Time++
	return nil
}

// route puts a step's sends onto the link in direction dir, each through
// the send check, and its writes onto Y, each judged by the tape. The
// write that flips the tape to violated records the violation.
func (w *World) route(dir channel.Dir, sends []msg.Msg, writes seq.Seq) error {
	for _, m := range sends {
		if err := w.Link.Send(dir, m); err != nil {
			return sendErr(dir, err)
		}
	}
	for i, item := range writes {
		t := w.Tape().Write(w.Input, writes[i:i+1])
		w.Output = append(w.Output, item)
		if t.Violated && w.SafetyViolation == nil {
			w.SafetyViolation = fmt.Errorf(
				"sim: safety violated at t=%d: Y = %s is not a prefix of X = %s",
				w.Time, w.Output, w.Input)
		}
	}
	return nil
}

// routeReceiver routes a receiver step.
func (w *World) routeReceiver(sends []msg.Msg, writes seq.Seq) error {
	return w.route(channel.RToS, sends, writes)
}

// Tape returns Y as the prefix judge sees it: its length and whether a
// violation has been recorded.
func (w *World) Tape() seq.Tape {
	return seq.Tape{Len: int32(len(w.Output)), Violated: w.SafetyViolation != nil}
}

// OutputComplete reports whether R has written all of X.
func (w *World) OutputComplete() bool {
	return len(w.Output) == len(w.Input) && w.SafetyViolation == nil
}

// Quiescent reports whether the sender declares itself done and no copies
// remain in flight toward R, i.e. nothing further can change Y.
func (w *World) Quiescent() bool {
	return w.S.Done() && w.Link.Half(channel.SToR).Deliverable().Total() == 0
}

// Clone returns an independent deep copy of the world. The trace recorder
// is not carried over (clones are exploration tools).
func (w *World) Clone() *World {
	// The input tape is read-only after New (which clones it), so clones
	// share it; the output tape is appended to and must stay deep-copied.
	return &World{
		Name:            w.Name,
		Input:           w.Input,
		Output:          w.Output.Clone(),
		Time:            w.Time,
		S:               w.S.Clone(),
		R:               w.R.Clone(),
		Link:            w.Link.Clone(),
		spec:            w.spec,
		SafetyViolation: w.SafetyViolation,
	}
}

// Key returns a canonical encoding of the global state for deduplication:
// both local states, both channel halves, and the output length (which is
// all that matters for future safety, given the input).
func (w *World) Key() string {
	return fmt.Sprintf("S:%s|R:%s|L:%s|Y:%d", w.S.Key(), w.R.Key(), w.Link.Key(), len(w.Output))
}

// EncodeKey appends the binary counterpart of Key to buf: both local
// states (via their EncodeKey fast path, falling back to the Key string),
// both channel halves, and the output length. Each component encoding is
// self-delimiting, so the concatenation identifies global states exactly
// as the Key string does — the model checker's dedup relies on that.
func (w *World) EncodeKey(buf []byte) []byte {
	buf = protocol.AppendKey(buf, w.S)
	buf = protocol.AppendKey(buf, w.R)
	buf = w.Link.EncodeKey(buf)
	return binary.AppendUvarint(buf, uint64(len(w.Output)))
}
