package cliutil

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"seqtx/internal/seq"
)

func TestParseSeq(t *testing.T) {
	cases := []struct {
		in   string
		want seq.Seq
		ok   bool
	}{
		{"", seq.Seq{}, true},
		{"  ", seq.Seq{}, true},
		{"0,1,2", seq.Seq{0, 1, 2}, true},
		{" 3 , 1 ", seq.Seq{3, 1}, true},
		{"1,x", nil, false},
	}
	for _, c := range cases {
		got, err := ParseSeq(c.in)
		if (err == nil) != c.ok {
			t.Fatalf("ParseSeq(%q) error = %v, want ok=%v", c.in, err, c.ok)
		}
		if c.ok && !got.Equal(c.want) {
			t.Fatalf("ParseSeq(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestValidators(t *testing.T) {
	if err := NonNegative("workers", -1); err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Fatalf("NonNegative(-1) = %v, want named error", err)
	}
	if err := NonNegative("workers", 0); err != nil {
		t.Fatalf("NonNegative(0) = %v, want nil", err)
	}
	if err := Positive("runs", 0); err == nil || !strings.Contains(err.Error(), "-runs") {
		t.Fatalf("Positive(0) = %v, want named error", err)
	}
	if err := Positive("runs", 3); err != nil {
		t.Fatalf("Positive(3) = %v, want nil", err)
	}
}

func TestHostPort(t *testing.T) {
	for _, good := range []string{"127.0.0.1:9000", ":0", "example.com:80", "[::1]:7700"} {
		if err := HostPort("master", good); err != nil {
			t.Errorf("HostPort(%q) = %v, want nil", good, err)
		}
	}
	for _, bad := range []string{"", "127.0.0.1", "host:port:extra", "[::1]"} {
		if err := HostPort("master", bad); err == nil || !strings.Contains(err.Error(), "-master") {
			t.Errorf("HostPort(%q) = %v, want named error", bad, err)
		}
	}
}

func TestMetricsDisabled(t *testing.T) {
	var m Metrics
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	m.AddFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if m.Enabled() {
		t.Fatal("metrics enabled without -metrics")
	}
	if m.Registry() != nil {
		t.Fatal("disabled metrics must hand out the nil registry (obs fast path)")
	}
	var buf bytes.Buffer
	if code := m.Finish("t", 0, &buf, &buf); code != 0 || buf.Len() != 0 {
		t.Fatalf("disabled Finish = %d (%q), want 0 and no output", code, buf.String())
	}
}

func TestMetricsWriteAndFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.prom")
	m := Metrics{Path: path, Format: "prom"}
	m.Registry().Counter("cli_test_total").Inc()
	var buf bytes.Buffer
	if code := m.Finish("t", 0, &buf, &buf); code != 0 {
		t.Fatalf("Finish = %d (%s), want 0", code, buf.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "cli_test_total 1") {
		t.Fatalf("snapshot missing counter:\n%s", data)
	}

	// A write failure turns success into exit 2 but never masks a verdict.
	bad := Metrics{Path: filepath.Join(dir, "no", "such", "dir.prom"), Format: "prom"}
	bad.Registry()
	if code := bad.Finish("t", 0, &buf, &buf); code != 2 {
		t.Fatalf("failed Finish on success = %d, want 2", code)
	}
	if code := bad.Finish("t", 1, &buf, &buf); code != 1 {
		t.Fatalf("failed Finish on verdict 1 = %d, want 1 (never mask)", code)
	}

	// An unknown format is a failed snapshot too, and writes nothing.
	yaml := Metrics{Path: filepath.Join(dir, "m.yaml"), Format: "yaml"}
	if code := yaml.Finish("t", 0, &buf, &buf); code != 2 {
		t.Fatalf("Finish in an unknown format = %d, want 2", code)
	}
	if _, err := os.Stat(yaml.Path); err == nil {
		t.Fatal("an unknown format left a file behind")
	}
}

// TestMetricsToStdout pins that "-metrics -" writes to the stdout the
// command was handed, in either format, and to no file.
func TestMetricsToStdout(t *testing.T) {
	for _, format := range []string{"prom", "json"} {
		m := Metrics{Path: "-", Format: format}
		m.Registry().Counter("cli_test_total").Inc()
		var out, errw bytes.Buffer
		if code := m.Finish("t", 0, &out, &errw); code != 0 || !strings.Contains(out.String(), "cli_test_total") {
			t.Errorf("%s: Finish = %d, stdout %q, stderr %q; want 0 and the counter on stdout", format, code, out.String(), errw.String())
		}
	}
}

func TestLists(t *testing.T) {
	if got := SplitList(" a, ,b ,"); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("SplitList = %q, want [a b]", got)
	}
	if got, err := ParseList("4, 16", strconv.Atoi); err != nil || len(got) != 2 || got[1] != 16 {
		t.Errorf("ParseList(4, 16) = %v, %v", got, err)
	}
	for _, bad := range []string{"", " , ", "4,x"} {
		if _, err := ParseList(bad, strconv.Atoi); err == nil {
			t.Errorf("ParseList(%q) accepted", bad)
		}
	}
}
