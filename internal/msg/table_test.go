package msg

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// hybridLike exercises every shape a declaration can take: two-field,
// one-field and constant kinds, three to a side.
var hybridLike = Decl{
	Sender:   Kinds{K("p", 2, 3), K("s", 2, 3), K("fin", 2)},
	Receiver: Kinds{K("pk", 2), K("sk", 2), K("fk")},
}

func TestTableEnumeratesKindsRowMajor(t *testing.T) {
	t.Parallel()
	tab := TableFor(hybridLike)
	wantS := []Msg{
		"p:0:0", "p:0:1", "p:0:2", "p:1:0", "p:1:1", "p:1:2",
		"s:0:0", "s:0:1", "s:0:2", "s:1:0", "s:1:1", "s:1:2",
		"fin:0", "fin:1",
	}
	wantR := []Msg{"pk:0", "pk:1", "sk:0", "sk:1", "fk"}
	if got := tab.S.Alphabet().Msgs(); !reflect.DeepEqual(got, wantS) {
		t.Errorf("M^S = %v, want %v", got, wantS)
	}
	if got := tab.R.Alphabet().Msgs(); !reflect.DeepEqual(got, wantR) {
		t.Errorf("M^R = %v, want %v", got, wantR)
	}
	if hybridLike.Sender.Size() != len(wantS) || hybridLike.Receiver.Size() != len(wantR) {
		t.Errorf("declared sizes %d/%d, want %d/%d",
			hybridLike.Sender.Size(), hybridLike.Receiver.Size(), len(wantS), len(wantR))
	}
}

// TestCodecRoundTrip: for every member, Decode inverts Msg, Send is the
// same message as a one-element slice that an append cannot grow in
// place, and the decoded fields lie in the declared ranges.
func TestCodecRoundTrip(t *testing.T) {
	t.Parallel()
	tab := TableFor(hybridLike)
	for _, side := range []struct {
		c     *Codec
		kinds Kinds
	}{{&tab.S, hybridLike.Sender}, {&tab.R, hybridLike.Receiver}} {
		for _, m := range side.c.Alphabet().Msgs() {
			v, ok := side.c.Decode(m)
			if !ok {
				t.Fatalf("member %q does not decode", m)
			}
			k := side.kinds[v.Kind]
			for i, f := range v.F {
				if i < k.Arity && (f < 0 || f >= k.Range[i]) || i >= k.Arity && f != 0 {
					t.Errorf("%q decodes to %+v outside %+v", m, v, k)
				}
			}
			if got := side.c.Msg(v.Kind, v.F); got != m {
				t.Errorf("Msg(%+v) = %q, want %q", v, got, m)
			}
			if got := side.c.Send(v.Kind, v.F); len(got) != 1 || cap(got) != 1 || got[0] != m {
				t.Errorf("Send(%+v) = %v (cap %d), want [%s] (cap 1)", v, got, cap(got), m)
			}
			if want := Format(k.Prefix, v.F[:k.Arity]...); want != m {
				t.Errorf("Format(%+v) = %q, want %q", v, want, m)
			}
		}
	}
	for _, alien := range []Msg{"", "p", "p:0", "p:0:3", "p:2:0", "p:00:1", "p:0:1 ", "fin", "fk:0", "fkx"} {
		if v, ok := tab.S.Decode(alien); ok {
			t.Errorf("alien %q decodes to %+v in M^S", alien, v)
		}
		if v, ok := tab.R.Decode(alien); ok {
			t.Errorf("alien %q decodes to %+v in M^R", alien, v)
		}
	}
}

// BenchmarkCodecDecode prices Decode on selective repeat's M^S at m = 64,
// W = 16 (2 048 messages, selrepeat.Decl(64, 16)): interned, the messages
// the codec handed out (the address path Step takes on the wire); foreign,
// fresh copies of the same bytes (the alphabet's map).
func BenchmarkCodecDecode(b *testing.B) {
	c := &TableFor(Decl{Sender: Kinds{K("s", 2*16, 64)}, Receiver: Kinds{K("sa", 2*16)}}).S
	interned := c.Alphabet().Msgs()
	foreign := make([]Msg, len(interned))
	for i, m := range interned {
		foreign[i] = Msg(strings.Clone(string(m)))
	}
	for _, bc := range []struct {
		name string
		msgs []Msg
	}{{"interned", interned}, {"foreign", foreign}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i, j := 0, 0; i < b.N; i, j = i+1, j+1 {
				if j == len(bc.msgs) {
					j = 0
				}
				if _, ok := c.Decode(bc.msgs[j]); !ok {
					b.Fatalf("%q does not decode", bc.msgs[j])
				}
			}
		})
	}
}

func TestEmptyRangesDeclareNothing(t *testing.T) {
	t.Parallel()
	tab := TableFor(Decl{Sender: Kinds{K("b", 2, 0), K("end")}, Receiver: Kinds{K("k", 2)}})
	if got := tab.S.Alphabet().Msgs(); !reflect.DeepEqual(got, []Msg{"end"}) {
		t.Errorf("M^S = %v, want [end]", got)
	}
	if got := tab.S.Send(1, Fields{}); len(got) != 1 || got[0] != "end" {
		t.Errorf("Send(end) = %v", got)
	}
}

func TestTableForSharesOnePerDeclaration(t *testing.T) {
	t.Parallel()
	decl := func(m int) Decl {
		return Decl{Sender: Kinds{K("x", m)}, Receiver: Kinds{K("y", m)}}
	}
	var wg sync.WaitGroup
	got := make([][4]*Table, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for m := range got[g] {
					tab := TableFor(decl(m + 1))
					if got[g][m] != nil && got[g][m] != tab {
						t.Errorf("declaration %d yielded two tables", m+1)
					}
					got[g][m] = tab
				}
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for m := range got[g] {
			if got[g][m] != got[0][m] {
				t.Errorf("goroutine %d saw a private table for declaration %d", g, m+1)
			}
			if m > 0 && got[g][m] == got[g][m-1] {
				t.Errorf("declarations %d and %d share a table", m, m+1)
			}
		}
	}
}

func TestParseIsStrict(t *testing.T) {
	t.Parallel()
	maxInt := fmt.Sprint(math.MaxInt)
	accept := map[Msg][]int{
		"d:0:0":                   {0, 0},
		"d:10:7":                  {10, 7},
		Msg("d:" + maxInt + ":1"): {math.MaxInt, 1},
	}
	for m, want := range accept {
		var f Fields
		if !Parse(m, "d", f[:]) || f[0] != want[0] || f[1] != want[1] {
			t.Errorf("Parse(%q) = %v, want %v", m, f, want)
		}
	}
	for _, m := range []Msg{
		"", "d", "d:", "d:1", "d:1:", "d:1:2:3", "d:+1:2", "d:-1:2", "d:01:2", "d:1:02", "d:1:2xyz",
		"d:1:2 ", " d:1:2", "d:1 :2", "d::2", "e:1:2", "da:1:2", "d:0x1:2", "d:1_0:2", "d:١:2",
		"d:9223372036854775808:1", "d:99999999999999999999:1",
	} {
		var f Fields
		if Parse(m, "d", f[:]) {
			t.Errorf("Parse accepted %q as %v", m, f)
		}
	}
	if !Parse("fk", "fk", nil) || Parse("fkx", "fk", nil) || Parse("f", "fk", nil) {
		t.Error("constant messages must match exactly")
	}
}

// FuzzParseInvertsFormat: Parse accepts exactly Format's image, so no
// second spelling of a message exists.
func FuzzParseInvertsFormat(f *testing.F) {
	for _, s := range []string{"d:1:2", "d:01:1", "d:+1:02xyz", "b:1:2 junk", "a:7", "a:07", "", "d:9223372036854775807:0"} {
		f.Add(s, "d", uint8(2))
	}
	f.Fuzz(func(t *testing.T, s, prefix string, arity uint8) {
		fields := make([]int, arity%(MaxFields+1))
		if Parse(Msg(s), prefix, fields) {
			if got := Format(prefix, fields...); got != Msg(s) {
				t.Fatalf("Parse(%q, %q) = %v, which formats as %q", s, prefix, fields, got)
			}
		}
		for i := range fields {
			fields[i] = len(s) * (i + 1)
		}
		m := Format(prefix, fields...)
		back := make([]int, len(fields))
		if !Parse(m, prefix, back) || !reflect.DeepEqual(back, fields) {
			t.Fatalf("Parse(Format(%q, %v) = %q) = %v", prefix, fields, m, back)
		}
	})
}
