package msg

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// A protocol declares its two alphabets as message kinds — a prefix and
// ranged integer fields, "b:{2}:{m}" — and everything else is derived
// from the declaration here: both Alphabets, the shared one-message send
// slices, the decode views, and one process-wide table per declaration.
// A message that is not in the declared alphabet does not decode; there
// is no second parser behind the table.

// MaxKinds and MaxFields bound a declaration so that Decl is a plain
// comparable value: a cache key that needs no boxing and no allocation.
const (
	MaxKinds  = 3
	MaxFields = 2
)

// Fields holds a message's integer fields; unused trailing fields are 0.
type Fields [MaxFields]int

// Kind declares the messages "prefix:f0:f1" for every f_i in
// [0, Range[i]), i < Arity, enumerated row-major (last field fastest).
// Arity 0 declares the single constant message "prefix". The zero Kind
// declares nothing.
type Kind struct {
	Prefix string
	Arity  int
	Range  Fields
}

// K declares a kind with one ranged field per argument, at most
// MaxFields of them.
func K(prefix string, ranges ...int) Kind {
	// A switch, not a loop: inlined at a call site the arity is constant
	// and this folds to plain stores. Every registry.Pair declares anew.
	k := Kind{Prefix: prefix, Arity: len(ranges)}
	switch len(ranges) {
	case 2:
		k.Range[1] = ranges[1]
		fallthrough
	case 1:
		k.Range[0] = ranges[0]
	case 0:
	default:
		panic("msg: kind with more than MaxFields fields")
	}
	return k
}

// Size returns the number of messages the kind declares.
func (k Kind) Size() int {
	if k.Prefix == "" {
		return 0
	}
	n := 1
	for _, r := range k.Range[:k.Arity] {
		n *= r
	}
	return n
}

// Kinds is one side's alphabet: its kinds in enumeration order.
type Kinds [MaxKinds]Kind

// Size returns the number of messages declared: the paper's |M|.
func (ks Kinds) Size() int {
	n := 0
	for _, k := range ks {
		n += k.Size()
	}
	return n
}

// Decl declares a protocol's alphabets: M^S and M^R.
type Decl struct{ Sender, Receiver Kinds }

// View is a decoded message: the index of its kind in the declaring
// Kinds and its field values.
type View struct {
	Kind int
	F    Fields
}

// Codec is one declared alphabet with its derived encode and decode
// tables. It is read-only after construction and shared by every process
// built from the same declaration.
// Every message it hands out is a substring of one arena, member i in the
// slot at start + i×width (span bytes in all, kept alive by the members).
type Codec struct {
	alpha  Alphabet
	views  []View // by position in the alphabet
	base   [MaxKinds]int
	stride [MaxKinds]Fields

	start, width, span uintptr
}

func newCodec(kinds Kinds) Codec {
	c := Codec{views: make([]View, 0, kinds.Size())}
	msgs := make([]Msg, 0, kinds.Size())
	for k, kind := range kinds {
		c.base[k] = len(msgs)
		n := kind.Size()
		for i, s := kind.Arity-1, 1; i >= 0; i-- {
			c.stride[k][i] = s
			s *= kind.Range[i]
		}
		for p := 0; p < n; p++ {
			v := View{Kind: k}
			for i := 0; i < kind.Arity; i++ {
				v.F[i] = p / c.stride[k][i] % kind.Range[i]
			}
			m := Format(kind.Prefix, v.F[:kind.Arity]...)
			msgs = append(msgs, m)
			c.views = append(c.views, v)
			c.width = max(c.width, uintptr(len(m)))
		}
	}
	w, slots := int(c.width), make([]byte, len(msgs)*int(c.width))
	for i, m := range msgs {
		copy(slots[i*w:], m)
	}
	arena := string(slots)
	for i, m := range msgs {
		msgs[i] = Msg(arena[i*w : i*w+len(m)])
	}
	c.start = uintptr(unsafe.Pointer(unsafe.StringData(arena)))
	c.span = uintptr(len(arena))
	c.alpha = MustNewAlphabet(msgs...)
	return c
}

func (c *Codec) pos(kind int, f Fields) int {
	return c.base[kind] + f[0]*c.stride[kind][0] + f[1]*c.stride[kind][1]
}

// Alphabet returns the declared alphabet.
func (c *Codec) Alphabet() Alphabet { return c.alpha }

// Msg returns the message of the given kind and fields, which must lie
// in the declared ranges.
func (c *Codec) Msg(kind int, f Fields) Msg { return c.alpha.msgs[c.pos(kind, f)] }

// Send is Msg as a shared one-message slice — a window onto the
// alphabet's own message list, so Step returns it without allocating
// (see the ownership contract on protocol.Sender).
func (c *Codec) Send(kind int, f Fields) []Msg {
	p := c.pos(kind, f)
	return c.alpha.msgs[p : p+1 : p+1]
}

// Decode returns m's kind and fields, and whether m is in the alphabet.
// A message the codec handed out is found by where its bytes live: the
// slot they start at holds m itself (equal pointers, an O(1) compare).
// Any other string (Format's, a replay's) takes the alphabet's map.
func (c *Codec) Decode(m Msg) (View, bool) {
	if off := uintptr(unsafe.Pointer(unsafe.StringData(string(m)))) - c.start; off < c.span {
		if p := off / c.width; p*c.width == off && c.alpha.msgs[p] == m {
			return c.views[p], true
		}
	}
	if p, ok := c.alpha.index[m]; ok {
		return c.views[p], true
	}
	return View{}, false
}

// Table is a declaration's derived codecs: S for M^S, R for M^R.
type Table struct {
	S, R Codec
	decl Decl
}

var (
	tablesMu sync.Mutex
	tables   = map[Decl]*Table{}
	// lastTable is the most recently requested table. A fleet asks for
	// the same declaration once per session, and comparing a Decl is
	// several times cheaper than hashing one.
	lastTable atomic.Pointer[Table]
)

// TableFor returns the table derived from d. There is one per distinct
// declaration in the process, shared across simulator worlds,
// model-checker clones and wire sessions.
func TableFor(d Decl) *Table {
	if t := lastTable.Load(); t != nil && t.decl == d {
		return t
	}
	tablesMu.Lock()
	defer tablesMu.Unlock()
	t := tables[d]
	if t == nil {
		t = &Table{S: newCodec(d.Sender), R: newCodec(d.Receiver), decl: d}
		tables[d] = t
	}
	lastTable.Store(t)
	return t
}

// Format returns the canonical encoding "prefix:f0:f1…": decimal fields,
// no padding.
func Format(prefix string, fields ...int) Msg {
	var buf [32]byte // on the stack: the message is the only allocation
	b := append(buf[:0], prefix...)
	for _, f := range fields {
		b = strconv.AppendInt(append(b, ':'), int64(f), 10)
	}
	return Msg(b)
}

// Parse is Format's strict inverse, for alphabets too large to
// enumerate: it reports whether m is exactly prefix followed by
// len(fields) canonical decimals — no sign, no leading zeros, no
// overflow, no trailing bytes — and stores them in fields. Parse accepts
// m exactly when Format(prefix, fields...) == m.
func Parse(m Msg, prefix string, fields []int) bool {
	s, ok := strings.CutPrefix(string(m), prefix)
	if !ok {
		return false
	}
	for i := range fields {
		if len(s) < 2 || s[0] != ':' {
			return false
		}
		s = s[1:]
		n, j := 0, 0
		for ; j < len(s) && s[j] >= '0' && s[j] <= '9'; j++ {
			d := int(s[j] - '0')
			if n > (math.MaxInt-d)/10 {
				return false
			}
			n = n*10 + d
		}
		if j == 0 || (j > 1 && s[0] == '0') {
			return false
		}
		fields[i], s = n, s[j:]
	}
	return len(s) == 0
}
