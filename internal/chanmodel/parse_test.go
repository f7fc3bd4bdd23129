package chanmodel

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	specs := []string{
		"iid-dup(p=0.25)",
		"iid-dup(p=0)",
		"iid-dup(p=1)",
		"iid-loss(p=0.1)",
		"k-del(k=2,n=16)",
		"k-del(k=0,n=4)",
		"ge(pgb=0.05,pbg=0.5,lg=0.01,lb=0.5)",
	}
	for _, spec := range specs {
		m, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := m.Spec(); got != spec {
			t.Errorf("Parse(%q).Spec() = %q, not canonical", spec, got)
		}
		again, err := Parse(m.Spec())
		if err != nil {
			t.Fatalf("Parse(Spec()) of %q: %v", spec, err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Errorf("%q: Parse(Spec()) != original model: %#v vs %#v", spec, again, m)
		}
	}
}

func TestParseTolerantForms(t *testing.T) {
	cases := map[string]string{
		" iid-dup( p = 0.25 ) ": "iid-dup(p=0.25)",
		"k-del( n=16 , k=2 )":   "k-del(k=2,n=16)", // key order free
		"ge()":                  "ge(pgb=0.05,pbg=0.5,lg=0.01,lb=0.5)",
		"ge(lb=0.9)":            "ge(pgb=0.05,pbg=0.5,lg=0.01,lb=0.9)",
		"iid-loss(p=1e-1)":      "iid-loss(p=0.1)",
	}
	for in, want := range cases {
		m, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if got := m.Spec(); got != want {
			t.Errorf("Parse(%q).Spec() = %q, want %q", in, got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"iid-dup",
		"iid-dup(",
		"iid-dup)",
		"iid-dup(p=0.25",
		"bogus(p=0.5)",
		"iid-dup(q=0.5)",
		"iid-dup(p=0.5,p=0.6)",
		"iid-dup(p=)",
		"iid-dup(=0.5)",
		"iid-dup(p=zebra)",
		"iid-dup(p=1.5)",
		"iid-dup(p=NaN)",
		"k-del(k=2)",
		"k-del(n=8)",
		"k-del(k=2.5,n=8)",
		"k-del(k=9,n=8)",
		"ge(pgb=2)",
		"ge(zzz=1)",
		"iid-dup(p=0.5) trailing",
	}
	for _, spec := range bad {
		if m, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): want error, got %v", spec, m)
		}
	}
}

func TestParseList(t *testing.T) {
	models, err := ParseList("iid-loss(p=0.1), k-del(k=2,n=16),ge(lb=0.9)")
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 3 {
		t.Fatalf("ParseList: got %d models, want 3", len(models))
	}
	if models[1].Family() != "k-del" {
		t.Errorf("ParseList order: models[1] = %s, want k-del", models[1].Spec())
	}
	if _, err := ParseList(""); err == nil {
		t.Error("ParseList(\"\"): want error")
	}
	if _, err := ParseList("iid-loss(p=0.1),nope(x=1)"); err == nil {
		t.Error("ParseList with a bad entry: want error")
	}
}

func TestSplitSpecs(t *testing.T) {
	got := SplitSpecs("a(x=1,y=2), b(z=3) ,, c")
	want := []string{"a(x=1,y=2)", "b(z=3)", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SplitSpecs = %q, want %q", got, want)
	}
}

// FuzzParseSpec checks the parser never panics, and that every accepted
// spec canonicalizes to a fixed point: Parse(m.Spec()).Spec() == m.Spec().
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"iid-dup(p=0.25)",
		"iid-loss(p=0.1)",
		"k-del(k=2,n=16)",
		"ge(pgb=0.05,pbg=0.5,lg=0.01,lb=0.5)",
		"ge()",
		"k-del(k=,n=16)",
		"iid-dup(p=1e300)",
		"x(",
		"((((,,,=",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := Parse(spec)
		if err != nil {
			if m != nil {
				t.Fatalf("Parse(%q) returned both a model and an error", spec)
			}
			return
		}
		canon := m.Spec()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) accepted but canonical %q rejected: %v", spec, canon, err)
		}
		if again.Spec() != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q -> %q", spec, canon, again.Spec())
		}
		if strings.TrimSpace(m.Family()) == "" {
			t.Fatalf("Parse(%q): empty family", spec)
		}
	})
}
