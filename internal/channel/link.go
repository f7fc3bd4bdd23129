package channel

import (
	"fmt"

	"seqtx/internal/msg"
)

// Dir identifies a direction on the bidirectional link.
type Dir int

// Link directions.
const (
	// SToR carries the sender's messages to the receiver.
	SToR Dir = iota + 1
	// RToS carries the receiver's messages (acknowledgements) back.
	RToS
)

// String names the direction.
func (d Dir) String() string {
	switch d {
	case SToR:
		return "S→R"
	case RToS:
		return "R→S"
	default:
		return fmt.Sprintf("Dir(%d)", int(d))
	}
}

// Link is the bidirectional communication channel between S and R: two
// independent halves of the same kind. A Link optionally enforces the
// finite message alphabets M^S and M^R: the paper's bounds are functions
// of |M^S|, so protocols must declare what they use. A nil alphabet
// disables enforcement (used for the unbounded-header Stenning baseline,
// which deliberately violates the finite-alphabet assumption).
type Link struct {
	sToR      Half
	rToS      Half
	senderAlp *msg.Alphabet // M^S, nil = unbounded
	recvAlp   *msg.Alphabet // M^R, nil = unbounded
}

// NewLink builds a link from two halves (typically the same kind).
func NewLink(sToR, rToS Half) *Link {
	return &Link{sToR: sToR, rToS: rToS}
}

// NewLinkOfKind builds a link whose halves are both of kind k.
func NewLinkOfKind(k Kind) (*Link, error) {
	a, err := New(k)
	if err != nil {
		return nil, err
	}
	b, err := New(k)
	if err != nil {
		return nil, err
	}
	return NewLink(a, b), nil
}

// EnforceAlphabets restricts sends: the sender may only send messages in
// ms (the paper's M^S) and the receiver only messages in mr (M^R).
func (l *Link) EnforceAlphabets(ms, mr msg.Alphabet) {
	l.senderAlp = &ms
	l.recvAlp = &mr
}

// Half returns the half carrying messages in direction d.
func (l *Link) Half(d Dir) Half {
	if d == SToR {
		return l.sToR
	}
	return l.rToS
}

// SenderAlphabetSize returns |M^S| and whether it is finite (enforced).
func (l *Link) SenderAlphabetSize() (int, bool) {
	if l.senderAlp == nil {
		return 0, false
	}
	return l.senderAlp.Size(), true
}

// Admits reports whether the declared alphabet of direction d allows m;
// the error is the one Send would return.
func (l *Link) Admits(d Dir, m msg.Msg) error {
	switch d {
	case SToR:
		if l.senderAlp != nil && !l.senderAlp.Contains(m) {
			return fmt.Errorf("channel: sender message %q outside M^S = %s", m, l.senderAlp)
		}
	case RToS:
		if l.recvAlp != nil && !l.recvAlp.Contains(m) {
			return fmt.Errorf("channel: receiver message %q outside M^R = %s", m, l.recvAlp)
		}
	default:
		return fmt.Errorf("channel: bad direction %d", int(d))
	}
	return nil
}

// Send places one copy of m on the half in direction d, enforcing the
// declared alphabet if any.
func (l *Link) Send(d Dir, m msg.Msg) error {
	if err := l.Admits(d, m); err != nil {
		return err
	}
	l.Half(d).Send(m)
	return nil
}

// Clone returns an independent deep copy of the link.
func (l *Link) Clone() *Link {
	return &Link{
		sToR:      l.sToR.Clone(),
		rToS:      l.rToS.Clone(),
		senderAlp: l.senderAlp,
		recvAlp:   l.recvAlp,
	}
}

// WithHalves returns a link over the given halves that enforces l's
// alphabets: how a tabulated state (sim.System) becomes a world again.
func (l *Link) WithHalves(sToR, rToS Half) *Link {
	return &Link{sToR: sToR, rToS: rToS, senderAlp: l.senderAlp, recvAlp: l.recvAlp}
}

// Key returns a canonical encoding of both halves' states.
func (l *Link) Key() string {
	return l.sToR.Key() + "|" + l.rToS.Key()
}

// EncodeKey appends the binary counterpart of Key: both halves' canonical
// encodings in direction order. Each half encoding is self-delimiting, so
// the concatenation stays unambiguous.
func (l *Link) EncodeKey(buf []byte) []byte {
	buf = l.sToR.EncodeKey(buf)
	return l.rToS.EncodeKey(buf)
}
