package registry_test

// The alphabet as a declared, finite object: its size is an asserted
// number, a message outside it changes nothing at either end, and the
// derived decode agrees with the Sscanf parses it replaced. Those format
// strings survive only here, as the reference.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/protocol/abp"
	"seqtx/internal/protocol/afwz"
	"seqtx/internal/protocol/alphaproto"
	"seqtx/internal/protocol/gobackn"
	"seqtx/internal/protocol/hybrid"
	"seqtx/internal/protocol/modseq"
	"seqtx/internal/protocol/selrepeat"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
)

// legacyKind is one kind's deleted parse: a Sscanf format (or, with no
// verbs, the constant the old code compared against) and the index of
// the kind it stands for in the declaration.
type legacyKind struct {
	kind   int
	format string
	arity  int
}

// finiteZoo lists every finite-alphabet registry protocol with its
// declaration, the closed-form sizes its package doc states, and the
// legacy parses in the order the deleted fallbacks tried them.
var finiteZoo = []struct {
	name         string
	decl         func(p registry.Params) msg.Decl
	sizeS, sizeR func(m, w int) int
	legacyS      []legacyKind
	legacyR      []legacyKind
}{
	{name: "alpha", decl: alphaDecl, sizeS: sizeM, sizeR: sizeM, legacyS: dv("d"), legacyR: dv("a")},
	{name: "naive", decl: alphaDecl, sizeS: sizeM, sizeR: sizeM, legacyS: dv("d"), legacyR: dv("a")},
	{name: "flood", decl: alphaDecl, sizeS: sizeM, sizeR: sizeM, legacyS: dv("d"), legacyR: dv("a")},
	{name: "stab", decl: alphaDecl, sizeS: sizeM, sizeR: sizeM, legacyS: dv("d"), legacyR: dv("a")},
	{
		name:  "abp",
		decl:  func(p registry.Params) msg.Decl { return abp.Decl(p.M) },
		sizeS: func(m, _ int) int { return 2 * m }, sizeR: func(_, _ int) int { return 2 },
		legacyS: []legacyKind{{0, "b:%d:%d", 2}}, legacyR: dv("k"),
	},
	{
		name:  "modseq",
		decl:  func(p registry.Params) msg.Decl { return modseq.Decl(p.M, p.Window) },
		sizeS: func(m, w int) int { return w * m }, sizeR: func(_, w int) int { return w },
		legacyS: []legacyKind{{0, "d:%d:%d", 2}}, legacyR: dv("a"),
	},
	{
		name:  "gobackn",
		decl:  func(p registry.Params) msg.Decl { return gobackn.Decl(p.M, p.Window) },
		sizeS: func(m, w int) int { return (w + 1) * m }, sizeR: func(_, w int) int { return w + 1 },
		legacyS: []legacyKind{{0, "g:%d:%d", 2}}, legacyR: dv("ga"),
	},
	{
		name:  "selrepeat",
		decl:  func(p registry.Params) msg.Decl { return selrepeat.Decl(p.M, p.Window) },
		sizeS: func(m, w int) int { return 2 * w * m }, sizeR: func(_, w int) int { return 2 * w },
		legacyS: []legacyKind{{0, "s:%d:%d", 2}}, legacyR: dv("sa"),
	},
	{
		name:  "hybrid",
		decl:  func(p registry.Params) msg.Decl { return hybrid.Decl(p.M) },
		sizeS: func(m, _ int) int { return 4*m + 2 }, sizeR: func(_, _ int) int { return 5 },
		legacyS: []legacyKind{{2, "fin:%d", 1}, {0, "p:%d:%d", 2}, {1, "s:%d:%d", 2}},
		legacyR: []legacyKind{{0, "pk:%d", 1}, {1, "sk:%d", 1}, {2, "fk", 0}},
	},
	{
		name:  "afwz",
		decl:  func(p registry.Params) msg.Decl { return afwz.Decl(p.M) },
		sizeS: func(m, _ int) int { return m + 1 }, sizeR: func(_, _ int) int { return 1 },
		legacyS: []legacyKind{{1, "end", 0}, {0, "r:%d", 1}},
		legacyR: []legacyKind{{0, "ack", 0}},
	},
}

func alphaDecl(p registry.Params) msg.Decl { return alphaproto.Decl(p.M) }
func sizeM(m, _ int) int                   { return m }
func dv(prefix string) []legacyKind        { return []legacyKind{{0, prefix + ":%d", 1}} }

// legacyParse is the deleted parser: the first legacy kind that accepts
// x, with the values it scanned.
func legacyParse(kinds []legacyKind, x string) (msg.View, bool) {
	for _, k := range kinds {
		v := msg.View{Kind: k.kind}
		var err error
		switch k.arity {
		case 0:
			if x != k.format {
				err = fmt.Errorf("no match")
			}
		case 1:
			_, err = fmt.Sscanf(x, k.format, &v.F[0])
		default:
			_, err = fmt.Sscanf(x, k.format, &v.F[0], &v.F[1])
		}
		if err == nil {
			return v, true
		}
	}
	return msg.View{}, false
}

// TestAlphabetSizes pins |M^S| and |M^R|: what the built processes
// report, what the declaration's ranges multiply out to, and the closed
// form in the package doc (and docs/PAPER-MAP.md) are one number.
func TestAlphabetSizes(t *testing.T) {
	if got, want := len(finiteZoo)+1, len(registry.ProtocolNames()); got != want {
		t.Fatalf("finiteZoo covers %d protocols (with stenning), registry has %d", got, want)
	}
	for _, z := range finiteZoo {
		for _, m := range []int{0, 1, 2, 3, 5, 8} {
			for _, w := range []int{1, 2, 3, 8} {
				p := registry.Params{M: m, Timeout: 4, Window: w, Cap: 2}
				s, r, err := registry.Pair(z.name, p, nil)
				if err != nil {
					t.Fatalf("%s %+v: %v", z.name, p, err)
				}
				d := z.decl(p)
				if got, want := s.Alphabet().Size(), z.sizeS(m, w); got != want || d.Sender.Size() != want {
					t.Errorf("%s m=%d W=%d: |M^S| = %d, declared %d, closed form %d",
						z.name, m, w, got, d.Sender.Size(), want)
				}
				if got, want := r.Alphabet().Size(), z.sizeR(m, w); got != want || d.Receiver.Size() != want {
					t.Errorf("%s m=%d W=%d: |M^R| = %d, declared %d, closed form %d",
						z.name, m, w, got, d.Receiver.Size(), want)
				}
			}
		}
	}
}

// alienSpellings are non-canonical or foreign spellings of the zoo's
// messages. At the parent commit the Sscanf fallbacks accepted several
// of them, and abp, modseq and afwz then acted on the zero value of the
// discarded scan: a fresh abp receiver handed "b:1:2 junk" wrote item 0.
var alienSpellings = []msg.Msg{"b:1:2 junk", "d:01:1", "r:07", "g:07:3", "sa:+1", ""}

// TestAlienMessagesChangeNothing: a message in neither alphabet, handed
// to either end of any finite-alphabet protocol, produces no sends and
// no writes and leaves the state key as it was.
func TestAlienMessagesChangeNothing(t *testing.T) {
	p := registry.Params{M: 3, Timeout: 4, Window: 2, Cap: 2}
	for _, z := range finiteZoo {
		s, r, err := registry.Pair(z.name, p, seq.FromInts(0, 1, 2))
		if err != nil {
			t.Fatalf("%s: %v", z.name, err)
		}
		// Put frames in flight, so an acknowledgement has something to move.
		s.Step(protocol.TickEvent())
		s.Step(protocol.TickEvent())
		for _, x := range alienSpellings {
			if s.Alphabet().Contains(x) || r.Alphabet().Contains(x) {
				t.Fatalf("%s: %q is in an alphabet; pick another spelling", z.name, x)
			}
			ev := protocol.RecvEvent(x)
			before := protocol.AppendKey(nil, r)
			if acks, writes := r.Step(ev); len(acks)+len(writes) != 0 {
				t.Errorf("%s receiver on %q: sends %v, writes %v", z.name, x, acks, writes)
			}
			if after := protocol.AppendKey(nil, r); !bytes.Equal(before, after) {
				t.Errorf("%s receiver on %q: key %x -> %x", z.name, x, before, after)
			}
			before = protocol.AppendKey(nil, s)
			if sends := s.Step(ev); len(sends) != 0 {
				t.Errorf("%s sender on %q: sends %v", z.name, x, sends)
			}
			if after := protocol.AppendKey(nil, s); !bytes.Equal(before, after) {
				t.Errorf("%s sender on %q: key %x -> %x", z.name, x, before, after)
			}
		}
	}
}

// FuzzCodecVsLegacyParse is the evidence that deleting the fallbacks lost
// nothing but the bugs: for every protocol, side and input, the derived
// decode either agrees exactly with the legacy parse on a member of the
// alphabet, or rejects — and what it rejects is never a canonical,
// in-range spelling the legacy parse would have understood. It also holds
// Decode's address path to its map: a message whose bytes live in a
// codec's arena — the interned copy, every prefix and suffix of it (on and
// off slot starts), the same spelling interned by any declaration's table
// — decodes exactly as a fresh copy of the same bytes does.
func FuzzCodecVsLegacyParse(f *testing.F) {
	for _, x := range alienSpellings {
		f.Add(string(x), uint8(3), uint8(2))
	}
	for _, x := range []string{"d:0", "a:2", "b:1:2", "k:1", "d:1:2", "g:2:1", "ga:0", "s:3:0", "sa:3",
		"p:0:1", "s:1:1", "fin:1", "pk:0", "sk:1", "fk", "r:2", "end", "ack", "d:-1", "d: 1", "fin:2", "endx"} {
		f.Add(x, uint8(3), uint8(2))
	}
	f.Fuzz(func(t *testing.T, x string, m, w uint8) {
		p := registry.Params{M: int(m % 7), Window: int(w%4) + 1}
		var interned []msg.Msg // x as each table of p that declares it holds it
		for _, z := range finiteZoo {
			table := msg.TableFor(z.decl(p))
			for _, c := range []*msg.Codec{&table.S, &table.R} {
				if y, ok := c.Alphabet().Canonical([]byte(x)); ok {
					interned = append(interned, y)
				}
			}
		}
		for _, z := range finiteZoo {
			d := z.decl(p)
			table := msg.TableFor(d)
			for _, side := range []struct {
				name   string
				codec  *msg.Codec
				kinds  msg.Kinds
				legacy []legacyKind
			}{
				{"sender", &table.S, d.Sender, z.legacyS},
				{"receiver", &table.R, d.Receiver, z.legacyR},
			} {
				agree := func(y msg.Msg) {
					got, ok := side.codec.Decode(y)
					want, wantOK := side.codec.Decode(msg.Msg(strings.Clone(string(y))))
					if got != want || ok != wantOK {
						t.Fatalf("%s %s: arena-backed %q decodes to %+v (ok=%v), a copy to %+v (ok=%v)",
							z.name, side.name, y, got, ok, want, wantOK)
					}
				}
				for _, y := range interned {
					agree(y)
				}
				if y, ok := side.codec.Alphabet().Canonical([]byte(x)); ok {
					for i := range len(y) {
						agree(y[:i+1])
						agree(y[i:])
					}
				}
				got, ok := side.codec.Decode(msg.Msg(x))
				if ok != side.codec.Alphabet().Contains(msg.Msg(x)) {
					t.Fatalf("%s %s %q: Decode ok=%v disagrees with Alphabet.Contains", z.name, side.name, x, ok)
				}
				want, legacyOK := legacyParse(side.legacy, x)
				if ok {
					if !legacyOK || got != want {
						t.Fatalf("%s %s %q: decoded %+v, legacy %+v (ok=%v)", z.name, side.name, x, got, want, legacyOK)
					}
					continue
				}
				if !legacyOK {
					continue
				}
				k := side.kinds[want.Kind]
				canonical := msg.Format(k.Prefix, want.F[:k.Arity]...) == msg.Msg(x)
				inRange := true
				for i := 0; i < k.Arity; i++ {
					inRange = inRange && want.F[i] >= 0 && want.F[i] < k.Range[i]
				}
				if canonical && inRange {
					t.Fatalf("%s %s: rejected %q, a canonical in-range %+v", z.name, side.name, x, want)
				}
			}
		}
	})
}
