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
		half := w.Link.Half(dir)
		f, _ := half.(*channel.FIFO)
		for i := 0; ; i++ {
			m, ok := half.Support(i)
			if !ok {
				break
			}
			acts = append(acts, trace.Deliver(dir, m))
			if f != nil && f.AllowsDup() {
				acts = append(acts, trace.DeliverDup(dir, m))
			}
			if half.CanDrop(m) {
				acts = append(acts, trace.Drop(dir, m))
			}
		}
	}
	return acts
}

// Apply executes one scheduler action: it performs the channel operation,
// steps the affected process, routes its sends onto the link, appends R's
// writes to Y, checks safety online, and advances the clock.
func (w *World) Apply(act trace.Action) error {
	var (
		sends  []msg.Msg
		writes seq.Seq
		err    error
	)
	switch act.Kind {
	case trace.ActTickS:
		sends = w.S.Step(protocol.TickEvent())
		err = w.routeSender(sends)
	case trace.ActTickR:
		sends, writes = w.R.Step(protocol.TickEvent())
		err = w.routeReceiver(sends, writes)
	case trace.ActDeliver, trace.ActDeliverDup:
		if act.Kind == trace.ActDeliverDup {
			f, ok := w.Link.Half(act.Dir).(*channel.FIFO)
			if !ok {
				return fmt.Errorf("sim: deliver+dup on non-FIFO half %s", act.Dir)
			}
			if derr := f.DeliverKeep(act.Msg); derr != nil {
				return fmt.Errorf("sim: %w", derr)
			}
		} else if derr := w.Link.Half(act.Dir).Deliver(act.Msg); derr != nil {
			return fmt.Errorf("sim: %w", derr)
		}
		if act.Dir == channel.SToR {
			sends, writes = w.R.Step(protocol.RecvEvent(act.Msg))
			err = w.routeReceiver(sends, writes)
		} else {
			sends = w.S.Step(protocol.RecvEvent(act.Msg))
			err = w.routeSender(sends)
		}
	case trace.ActDrop:
		if derr := w.Link.Half(act.Dir).Drop(act.Msg); derr != nil {
			return fmt.Errorf("sim: %w", derr)
		}
	case trace.ActCrashS, trace.ActCrashR:
		// Crash-restart: the process loses its local state and restarts in
		// its initial state. In-flight messages and the tapes survive. This
		// fault is outside the paper's model (never in Enabled()); it is
		// injected only by fault plans and replayed counterexamples.
		if w.spec.NewSender == nil || w.spec.NewReceiver == nil {
			return fmt.Errorf("sim: %s requires a spec-built world", act.Kind)
		}
		if act.Kind == trace.ActCrashS {
			s, cerr := w.spec.NewSender(w.Input)
			if cerr != nil {
				return fmt.Errorf("sim: crash-restart of S: %w", cerr)
			}
			w.S = s
		} else {
			r, cerr := w.spec.NewReceiver()
			if cerr != nil {
				return fmt.Errorf("sim: crash-restart of R: %w", cerr)
			}
			w.R = r
		}
	case trace.ActScrambleS, trace.ActScrambleR:
		// Scramble-restart: the process restarts in seeded-arbitrary local
		// state (the self-stabilization adversary of [DDPT, arXiv
		// 1104.3947]: a transient fault corrupts memory instead of
		// clearing it). Rebuild-from-spec then corrupt, so processes
		// without a Scrambler hook degrade to plain crash-restart.
		if w.spec.NewSender == nil || w.spec.NewReceiver == nil {
			return fmt.Errorf("sim: %s requires a spec-built world", act.Kind)
		}
		if act.Kind == trace.ActScrambleS {
			s, cerr := w.spec.NewSender(w.Input)
			if cerr != nil {
				return fmt.Errorf("sim: scramble-restart of S: %w", cerr)
			}
			protocol.ScrambleState(s, act.Seed)
			w.S = s
		} else {
			r, cerr := w.spec.NewReceiver()
			if cerr != nil {
				return fmt.Errorf("sim: scramble-restart of R: %w", cerr)
			}
			protocol.ScrambleState(r, act.Seed)
			w.R = r
		}
	default:
		return fmt.Errorf("sim: unknown action kind %d", int(act.Kind))
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

func (w *World) routeSender(sends []msg.Msg) error {
	for _, m := range sends {
		if err := w.Link.Send(channel.SToR, m); err != nil {
			return fmt.Errorf("sim: sender step: %w", err)
		}
	}
	return nil
}

func (w *World) routeReceiver(sends []msg.Msg, writes seq.Seq) error {
	for _, m := range sends {
		if err := w.Link.Send(channel.RToS, m); err != nil {
			return fmt.Errorf("sim: receiver step: %w", err)
		}
	}
	for _, item := range writes {
		w.Output = append(w.Output, item)
		if w.SafetyViolation == nil && !w.Output.IsPrefixOf(w.Input) {
			w.SafetyViolation = fmt.Errorf(
				"sim: safety violated at t=%d: Y = %s is not a prefix of X = %s",
				w.Time, w.Output, w.Input)
		}
	}
	return nil
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
