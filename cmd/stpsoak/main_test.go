package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seqtx/internal/obs"
	"seqtx/internal/soak"
)

// stpsoak runs one command line in process and returns its exit code
// and output.
func stpsoak(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestSmokeCampaign runs the smoke campaign under a budget: every cell
// that promised to survive did, and the report parses.
func TestSmokeCampaign(t *testing.T) {
	file := filepath.Join(t.TempDir(), "soak.json")
	code, _, errs := stpsoak(t, "-campaign", "smoke", "-budget", "30s", "-o", file)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr:\n%s", code, errs)
	}
	var rep soak.Report
	data, err := os.ReadFile(file)
	if err == nil {
		err = json.Unmarshal(data, &rep)
	}
	if err != nil || rep.Campaign != "smoke" || rep.Summary.Total == 0 || rep.Summary.UnexpectedViolations != 0 {
		t.Errorf("report %+v (%v); want a smoke campaign with runs and no unexpected violation", rep.Summary, err)
	}
}

// TestMetrics writes the campaign's metrics snapshot in both formats: the
// JSON one parses and counts the cells, the Prometheus one declares and
// sets soak_cells_total, and "-metrics -" writes to the command's stdout.
func TestMetrics(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "soak.json")
	snapshot := func(path, format string) string {
		t.Helper()
		code, out, errs := stpsoak(t, "-campaign", "smoke", "-q", "-o", report, "-metrics", path, "-metrics-format", format)
		if code != 0 {
			t.Fatalf("-metrics %s -metrics-format %s: exit %d, want 0\nstderr:\n%s", path, format, code, errs)
		}
		if path == "-" {
			return out
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(snapshot(filepath.Join(dir, "m.json"), "json")), &snap); err != nil || snap.Counters["soak_cells_total"] == 0 {
		t.Errorf("the JSON snapshot does not parse or counts no cell: %v, %v", err, snap.Counters)
	}
	prom := "\n" + snapshot(filepath.Join(dir, "m.prom"), "prom")
	if !strings.Contains(prom, "\n# TYPE soak_cells_total counter\n") || !strings.Contains(prom, "\nsoak_cells_total ") {
		t.Errorf("the Prometheus snapshot lacks soak_cells_total:%s", prom)
	}
	if out := snapshot("-", "prom"); !strings.Contains(out, "# TYPE soak_cells_total counter\n") {
		t.Errorf("-metrics - wrote no snapshot to stdout:\n%s", out)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-campaign bogus", `unknown campaign "bogus"`},
		{"-runs 0", "-runs must be > 0"},
		{"-campaign smoke -q -o " + filepath.Join(t.TempDir(), "no", "such", "dir.json"), "no such file or directory"},
	} {
		if code, _, errs := stpsoak(t, strings.Fields(c.args)...); code != 2 || !strings.Contains(errs, c.want) {
			t.Errorf("stpsoak %s: exit %d, stderr %q; want exit 2 naming %q", c.args, code, errs, c.want)
		}
	}
	if code, _, errs := stpsoak(t, "-h"); code != 0 || !strings.Contains(errs, "-campaign") {
		t.Errorf("stpsoak -h: exit %d, stderr %q; want 0 and the flag list", code, errs)
	}
}
