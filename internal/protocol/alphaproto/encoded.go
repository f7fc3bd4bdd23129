package alphaproto

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"seqtx/internal/alpha"
	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/slab"
)

// NewEncoded generalizes the tight protocol from the canonical X
// (repetition-free sequences over D) to an arbitrary finite set X of data
// sequences, provided X is prefix-monotone encodable over m messages —
// the exact condition the paper identifies as necessary (§3, end). The
// sender transmits the repetition-free code mu(X) symbol by symbol with
// value acknowledgements; the receiver, which knows the code table (R's
// protocol may depend on the set X, only not on the chosen X), writes
// data items as soon as the received code prefix pins them down.
//
// Prefix monotonicity is what makes eager writing safe: if the received
// code string equals mu(X1) for a member X1, then mu(X1) is a prefix of
// mu(X) for the actual input X, hence X1 is a prefix of X, so writing
// X1's items can never violate safety.
func NewEncoded(x *seq.Set, m int) (protocol.Spec, error) {
	enc, err := alpha.Encode(x, m)
	if err != nil {
		return protocol.Spec{}, fmt.Errorf("alphaproto: %w", err)
	}
	// Receiver-side decode table: code-string key -> member data sequence.
	decode := make(map[string]seq.Seq, x.Size())
	for _, member := range x.Seqs() {
		code, cerr := enc.Code(member)
		if cerr != nil {
			return protocol.Spec{}, cerr
		}
		decode[codeKey(code)] = member.Clone()
	}
	senderAlp := enc.Alphabet()
	ackMsgs := make([]msg.Msg, senderAlp.Size())
	// Interned per-symbol views, shared by every sender/receiver built
	// from this spec: the ack for each code symbol, its one-message
	// send slice, and the symbol's own send slice (indexed by alphabet
	// position), so Step allocates nothing.
	ackFor := make(map[msg.Msg]msg.Msg, senderAlp.Size())
	ackSend := make(map[msg.Msg][]msg.Msg, senderAlp.Size())
	symSend := make([][]msg.Msg, senderAlp.Size())
	for i, c := range senderAlp.Msgs() {
		ackMsgs[i] = msg.Msg("k:" + string(c))
		ackFor[c] = ackMsgs[i]
		ackSend[c] = []msg.Msg{ackMsgs[i]}
		symSend[i] = []msg.Msg{c}
	}
	recvAlp := msg.MustNewAlphabet(ackMsgs...)
	var (
		senders   slab.Slab[encSender]
		receivers slab.Slab[encReceiver]
		sends     slab.Slab[[]msg.Msg]
		msgs      slab.Slab[msg.Msg]
	)

	return protocol.Spec{
		Name:        fmt.Sprintf("alpha-encoded(m=%d,|X|=%d)", m, x.Size()),
		Description: "tight protocol over an encoded arbitrary X (prefix-monotone mu)",
		NewSender: func(input seq.Seq) (protocol.Sender, error) {
			code, cerr := enc.Code(input)
			if cerr != nil {
				return nil, fmt.Errorf("alphaproto: input %s not in X: %w", input, cerr)
			}
			// codeSend[k] is the interned send slice for code[k].
			codeSend := sends.Make(len(code))
			ackWait := msgs.Make(len(code))
			for k, c := range code {
				if i, ok := senderAlp.Index(c); ok {
					codeSend[k] = symSend[i]
				} else {
					codeSend[k] = msgs.Make(1)
					codeSend[k][0] = c
				}
				ackWait[k] = "k:" + c
			}
			s := senders.New()
			*s = encSender{alphabet: senderAlp, code: code, codeSend: codeSend, ackWait: ackWait}
			return s, nil
		},
		NewReceiver: func() (protocol.Receiver, error) {
			r := receivers.New()
			*r = encReceiver{alphabet: recvAlp, decode: decode, ackSend: ackSend}
			return r, nil
		},
	}, nil
}

func codeKey(code []msg.Msg) string {
	parts := make([]string, len(code))
	for i, c := range code {
		parts[i] = string(c)
	}
	return strings.Join(parts, "/")
}

// encSender transmits the code symbols of mu(input) with stop-and-wait on
// value acknowledgements, retransmitting on every tick.
type encSender struct {
	alphabet msg.Alphabet
	code     []msg.Msg
	codeSend [][]msg.Msg // interned per-position send slices
	ackWait  []msg.Msg   // interned expected ack per position
	idx      int
	moved    bool // the last Step moved idx
}

var _ protocol.Sender = (*encSender)(nil)

func (s *encSender) Step(ev protocol.Event) []msg.Msg {
	s.moved = false
	switch ev.Kind {
	case protocol.Recv:
		if s.idx < len(s.code) && ev.Msg == s.ackWait[s.idx] {
			s.idx++
			s.moved = true
		}
		return nil
	case protocol.Tick:
		if s.idx < len(s.code) {
			return s.codeSend[s.idx]
		}
		return nil
	default:
		return nil
	}
}

func (s *encSender) Moved() bool            { return s.moved }
func (s *encSender) Alphabet() msg.Alphabet { return s.alphabet }
func (s *encSender) Done() bool             { return s.idx >= len(s.code) }

func (s *encSender) Clone() protocol.Sender {
	return &encSender{alphabet: s.alphabet, code: s.code, codeSend: s.codeSend, ackWait: s.ackWait, idx: s.idx}
}

func (s *encSender) Key() string { return fmt.Sprintf("encS{idx=%d}", s.idx) }

func (s *encSender) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'E')
	return binary.AppendUvarint(buf, uint64(s.idx))
}

// encReceiver accumulates new code symbols in arrival order, acknowledges
// everything, and writes data items whenever the accumulated code string
// matches a member's full code.
type encReceiver struct {
	alphabet  msg.Alphabet
	decode    map[string]seq.Seq
	ackSend   map[msg.Msg][]msg.Msg // interned ack slice per code symbol
	codeSoFar []msg.Msg             // distinct symbols in arrival order
	written   int                   // items written so far
}

// ack returns the interned ack slice for symbol m, falling back to
// building one for out-of-alphabet symbols (same bytes as before).
func (r *encReceiver) ack(m msg.Msg) []msg.Msg {
	if a, ok := r.ackSend[m]; ok {
		return a
	}
	return []msg.Msg{msg.Msg("k:" + string(m))}
}

var _ protocol.Receiver = (*encReceiver)(nil)

func (r *encReceiver) Step(ev protocol.Event) ([]msg.Msg, seq.Seq) {
	if ev.Kind != protocol.Recv {
		// A member may have the empty code (its data is then a prefix of
		// every member's, so writing it blind is safe); commit it on the
		// first spontaneous step.
		return nil, r.tryWrite()
	}
	if slices.Contains(r.codeSoFar, ev.Msg) {
		return r.ack(ev.Msg), nil
	}
	r.codeSoFar = append(r.codeSoFar, ev.Msg)
	return r.ack(ev.Msg), r.tryWrite()
}

// tryWrite commits the data items pinned down by the received code prefix.
func (r *encReceiver) tryWrite() seq.Seq {
	member, ok := r.decode[codeKey(r.codeSoFar)]
	if !ok || len(member) <= r.written {
		return nil
	}
	writes := member[r.written:].Clone()
	r.written = len(member)
	return writes
}

func (r *encReceiver) Alphabet() msg.Alphabet { return r.alphabet }

func (r *encReceiver) Clone() protocol.Receiver {
	cp := *r
	cp.codeSoFar = slices.Clone(r.codeSoFar)
	return &cp
}

func (r *encReceiver) Key() string {
	return fmt.Sprintf("encR{%s|w=%d}", codeKey(r.codeSoFar), r.written)
}

func (r *encReceiver) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'e')
	buf = binary.AppendUvarint(buf, uint64(len(r.codeSoFar)))
	for _, m := range r.codeSoFar {
		buf = msg.AppendMsg(buf, m)
	}
	return binary.AppendUvarint(buf, uint64(r.written))
}
