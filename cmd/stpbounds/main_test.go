package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// stpbounds runs one command line in process and returns its exit code
// and output.
func stpbounds(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestTable checks the alpha(m) table against the paper's values.
func TestTable(t *testing.T) {
	code, out, errs := stpbounds(t, "-m", "5")
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, errs)
	}
	for m, alpha := range []string{"1", "2", "5", "16", "65", "326"} {
		if !regexp.MustCompile(`(?m)^` + string(rune('0'+m)) + ` +` + alpha + ` `).MatchString(out) {
			t.Errorf("no row alpha(%d) = %s in\n%s", m, alpha, out)
		}
	}
}

// TestList enumerates the alpha(3) = 16 repetition-free sequences, ranked
// 0 to 15 in DFS order.
func TestList(t *testing.T) {
	code, out, errs := stpbounds(t, "-m", "3", "-list")
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, errs)
	}
	rows := regexp.MustCompile(`(?m)^(\d+) +(\S+) *$`).FindAllStringSubmatch(out[strings.Index(out, "DFS order"):], -1)
	if len(rows) != 16 || rows[0][2] != "ε" || rows[15][1] != "15" || rows[15][2] != "2.1.0" {
		t.Errorf("want 16 ranked sequences from ε to 2.1.0, got %q", rows)
	}
}

// TestEncode encodes a set within alpha(2) and reports a set past
// alpha(1) as not encodable, with exit 0 either way.
func TestEncode(t *testing.T) {
	code, out, _ := stpbounds(t, "-m", "2", "-encode", "0,0;1;1,1")
	if code != 0 || !strings.Contains(out, "1.1              c1·c0") {
		t.Errorf("exit %d; want 0 and 1.1 coded c1·c0:\n%s", code, out)
	}
	code, out, _ = stpbounds(t, "-m", "1", "-encode", "0;1;0,1;1,0")
	if code != 0 || !strings.Contains(out, "NOT prefix-monotone encodable") {
		t.Errorf("exit %d; want 0 and NOT encodable:\n%s", code, out)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-m -1", "-m must be >= 0, got -1"},
		{"-m 6 -list", "-list limited to m <= 5"},
		{"-m 2 -encode 0,x", `bad item "x"`},
		{"-no-such-flag", "flag provided but not defined"},
	} {
		if code, _, errs := stpbounds(t, strings.Fields(c.args)...); code != 2 || !strings.Contains(errs, c.want) {
			t.Errorf("stpbounds %s: exit %d, stderr %q; want exit 2 naming %q", c.args, code, errs, c.want)
		}
	}
	if code, _, errs := stpbounds(t, "-h"); code != 0 || !strings.Contains(errs, "-encode") {
		t.Errorf("stpbounds -h: exit %d, stderr %q; want 0 and the flag list", code, errs)
	}
}
