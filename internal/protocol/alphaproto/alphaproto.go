// Package alphaproto implements the paper's tight protocol (§3 end, §4
// end): the finite-state solution to X-STP(dup) and X-STP(del) for the
// set X of repetition-free sequences over a domain D of size m, which has
// |X| = alpha(m) — matching the impossibility bound of Theorems 1 and 2.
//
// Protocol (quoting the paper): "S sends the data items in sequence and
// waits for the appropriate acknowledgements for each. R awaits the
// arrival of some new message (i.e., one different than any of the
// previously received messages); it then writes the new data item and
// sends the appropriate acknowledgement to S. Hence, reordering is dealt
// with by simply allowing the processors to ignore previously received
// messages."
//
// The same machine works on both channel models:
//
//   - dup: duplicates of old data messages are ignored by R because their
//     values were already seen — this is exactly why X must be
//     repetition-free;
//   - del: S retransmits the current item on every tick until it is
//     acknowledged, and R re-acknowledges duplicates (retransmissions), so
//     losses are repaired. The protocol is f-bounded with constant f: from
//     any point, one retransmission plus one acknowledgement round trip —
//     all fresh messages — teaches R the next item (Definition 2).
//
// Message alphabets: M^S = {d:v | v in D} and M^R = {a:v | v in D}, so
// |M^S| = m as in the paper (acknowledgements name the value because the
// ack channel also reorders; the paper's "appropriate acknowledgements").
package alphaproto

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/slab"
)

// DataMsg encodes the data message for item v.
func DataMsg(v seq.Item) msg.Msg { return msg.Format("d", int(v)) }

// AckMsg encodes the acknowledgement for item v.
func AckMsg(v seq.Item) msg.Msg { return msg.Format("a", int(v)) }

// Decl declares M^S = d:{m} and M^R = a:{m}, so |M^S| = |M^R| = m. Naive
// and stab speak the same alphabets and share the table.
func Decl(m int) msg.Decl {
	return msg.Decl{Sender: msg.Kinds{msg.K("d", m)}, Receiver: msg.Kinds{msg.K("a", m)}}
}

// New returns the protocol spec for domain size m. Senders reject inputs
// that repeat an item or leave the domain: those are outside this
// protocol's X (and, by Theorems 1 and 2, outside any protocol's X at
// this alphabet size, up to re-encoding).
func New(m int) (protocol.Spec, error) {
	if m < 0 {
		return protocol.Spec{}, fmt.Errorf("alphaproto: negative domain size %d", m)
	}
	t := msg.TableFor(Decl(m))
	var (
		senders   slab.Slab[sender]
		receivers slab.Slab[receiver]
		items     slab.Slab[seq.Item]
		flags     slab.Slab[bool]
	)
	return protocol.Spec{
		Name:        fmt.Sprintf("alpha(m=%d)", m),
		Description: "the paper's tight protocol: new-value writes, value acknowledgements",
		NewSender: func(input seq.Seq) (protocol.Sender, error) {
			for _, v := range input {
				if int(v) < 0 || int(v) >= m {
					return nil, fmt.Errorf("alphaproto: item %d outside domain of size %d", int(v), m)
				}
			}
			if input.HasRepetition() {
				return nil, fmt.Errorf("alphaproto: input %s repeats an item; X is the repetition-free sequences", input)
			}
			s := senders.New()
			*s = sender{t: t, input: items.Clone(input)}
			return s, nil
		},
		NewReceiver: func() (protocol.Receiver, error) {
			// written holds at most m items (one per value), so Step's
			// append never grows it.
			r := receivers.New()
			*r = receiver{t: t, seen: flags.Make(m), written: items.Make(m)[:0]}
			return r, nil
		},
	}, nil
}

// MustNew is New for validated parameters; it panics on error.
func MustNew(m int) protocol.Spec {
	s, err := New(m)
	if err != nil {
		panic(err)
	}
	return s
}

// sender is S: transmit input[idx] every tick until its ack arrives.
type sender struct {
	t     *msg.Table
	input seq.Seq
	idx   int  // next unacknowledged position
	moved bool // the last Step moved idx
}

var _ protocol.Sender = (*sender)(nil)

func (s *sender) Step(ev protocol.Event) []msg.Msg {
	s.moved = false
	switch ev.Kind {
	case protocol.Recv:
		if s.idx < len(s.input) && ev.Msg == s.t.R.Msg(0, msg.Fields{int(s.input[s.idx])}) {
			s.idx++
			s.moved = true
		}
		return nil
	case protocol.Tick:
		if s.idx < len(s.input) {
			return s.t.S.Send(0, msg.Fields{int(s.input[s.idx])})
		}
		return nil
	default:
		return nil
	}
}

func (s *sender) Moved() bool            { return s.moved }
func (s *sender) Alphabet() msg.Alphabet { return s.t.S.Alphabet() }
func (s *sender) Done() bool             { return s.idx >= len(s.input) }

func (s *sender) Clone() protocol.Sender {
	// The input tape is never mutated after construction, so clones share
	// it: the model checker clones on every explored transition.
	return &sender{t: s.t, input: s.input, idx: s.idx}
}

func (s *sender) Key() string {
	// The input is fixed per run; idx fully determines behaviour.
	return fmt.Sprintf("alphaS{idx=%d}", s.idx)
}

func (s *sender) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'A')
	return binary.AppendUvarint(buf, uint64(s.idx))
}

// receiver is R: write each never-before-seen value, acknowledge every
// data message (first sight or duplicate).
type receiver struct {
	t       *msg.Table
	seen    []bool // seen[v] for v in the domain: v is in written
	written seq.Seq
	w       [1]seq.Item // the one-item tape Step returns
}

var _ protocol.Receiver = (*receiver)(nil)

func (r *receiver) Step(ev protocol.Event) ([]msg.Msg, seq.Seq) {
	if ev.Kind != protocol.Recv {
		return nil, nil
	}
	d, ok := r.t.S.Decode(ev.Msg)
	if !ok {
		return nil, nil // not in M^S; ignore
	}
	v := d.F[0]
	if r.seen[v] {
		// Duplicate: re-acknowledge (repairs lost acks on del channels).
		return r.t.R.Send(0, d.F), nil
	}
	r.seen[v] = true
	r.w[0] = seq.Item(v)
	r.written = append(r.written, r.w[0])
	return r.t.R.Send(0, d.F), r.w[:]
}

func (r *receiver) Alphabet() msg.Alphabet { return r.t.R.Alphabet() }

func (r *receiver) Clone() protocol.Receiver {
	return &receiver{t: r.t, seen: slices.Clone(r.seen), written: r.written.Clone()}
}

func (r *receiver) Key() string {
	// The written order determines the seen set and all future behaviour.
	parts := make([]string, len(r.written))
	for i, v := range r.written {
		parts[i] = fmt.Sprintf("%d", int(v))
	}
	return "alphaR{" + strings.Join(parts, ".") + "}"
}

func (r *receiver) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'a')
	return r.written.EncodeKey(buf)
}
