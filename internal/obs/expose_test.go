package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// buildSnapshot populates a registry with one of everything.
func buildSnapshot() Snapshot {
	r := NewRegistry()
	r.Counter("soak_cells_total").Add(17)
	r.Counter(`wire_frames_dropped_total{cause="foreign"}`).Add(5)
	r.Counter(`wire_frames_dropped_total{cause="inbox_full"}`).Add(7)
	r.Gauge("mc_explore_states_per_sec").Set(1234.5)
	h := r.Histogram("sim_learn_time_steps", []float64{1, 2, 4})
	h.Observe(1)
	h.Observe(3)
	h.Observe(9)
	r.Emit("soak.run.finished", "case", "alpha/dup/random/none/seed=1", "outcome", "complete")
	return r.Snapshot()
}

// parseProm is a strict-enough Prometheus text parser for the exposition
// this package emits: every non-comment line must be `name{labels} value`
// or `name value` with a numeric value, and every series must be covered
// by a preceding # TYPE.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	series := make(map[string]float64)
	typed := make(map[string]string)
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line", ln+1)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE comment %q", ln+1, line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator in %q", ln+1, line)
		}
		name, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil && valStr != "+Inf" {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		base := name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			if !strings.HasSuffix(base, "}") {
				t.Fatalf("line %d: unbalanced labels in %q", ln+1, name)
			}
			base = base[:i]
		}
		root := base
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(base, suffix) && typed[strings.TrimSuffix(base, suffix)] == "histogram" {
				root = strings.TrimSuffix(base, suffix)
			}
		}
		if typed[root] == "" {
			t.Fatalf("line %d: series %q has no preceding # TYPE", ln+1, name)
		}
		series[name] = val
	}
	return series
}

func TestWritePrometheusParses(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := buildSnapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	series := parseProm(t, buf.String())

	if got := series["soak_cells_total"]; got != 17 {
		t.Errorf("soak_cells_total = %g", got)
	}
	if got := series[`wire_frames_dropped_total{cause="inbox_full"}`]; got != 7 {
		t.Errorf("labeled counter = %g", got)
	}
	if got := series["mc_explore_states_per_sec"]; got != 1234.5 {
		t.Errorf("gauge = %g", got)
	}
	// Histogram buckets must be cumulative and end at +Inf == count.
	if got := series[`sim_learn_time_steps_bucket{le="1"}`]; got != 1 {
		t.Errorf("le=1 bucket = %g, want 1", got)
	}
	if got := series[`sim_learn_time_steps_bucket{le="4"}`]; got != 2 {
		t.Errorf("le=4 bucket = %g, want cumulative 2", got)
	}
	if got := series[`sim_learn_time_steps_bucket{le="+Inf"}`]; got != 3 {
		t.Errorf("+Inf bucket = %g, want 3", got)
	}
	if got := series["sim_learn_time_steps_count"]; got != 3 {
		t.Errorf("count = %g", got)
	}
	if got := series["sim_learn_time_steps_sum"]; got != 13 {
		t.Errorf("sum = %g", got)
	}
	// Determinism: a second render is byte-identical.
	var buf2 bytes.Buffer
	if err := buildSnapshot().WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("prometheus rendering is not deterministic")
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	t.Parallel()
	snap := buildSnapshot()
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	// +Inf cannot survive encoding/json; the writer keeps snapshots
	// finite everywhere else, so compare modulo the terminal bucket.
	for name, h := range snap.Histograms {
		bh := back.Histograms[name]
		if len(bh.Buckets) != len(h.Buckets) {
			t.Fatalf("%s: bucket count %d != %d", name, len(bh.Buckets), len(h.Buckets))
		}
		for i := range h.Buckets {
			if h.Buckets[i].Count != bh.Buckets[i].Count {
				t.Errorf("%s bucket %d: count %d != %d", name, i, bh.Buckets[i].Count, h.Buckets[i].Count)
			}
		}
	}
	if !reflect.DeepEqual(snap.Counters, back.Counters) {
		t.Errorf("counters: %v != %v", back.Counters, snap.Counters)
	}
	if !reflect.DeepEqual(snap.Gauges, back.Gauges) {
		t.Errorf("gauges: %v != %v", back.Gauges, snap.Gauges)
	}
	if !reflect.DeepEqual(snap.Events, back.Events) {
		t.Errorf("events: %v != %v", back.Events, snap.Events)
	}
}

// TestJSONInfinityRendersAsString pins that the +Inf bucket bound is
// JSON-encodable: encoding/json rejects +Inf float64, so the Bucket type
// must marshal it safely.
func TestJSONInfinityRendersAsString(t *testing.T) {
	t.Parallel()
	b := Bucket{UpperBound: math.Inf(1), Count: 2}
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatalf("marshal +Inf bucket: %v", err)
	}
	var back Bucket
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(back.UpperBound, 1) || back.Count != 2 {
		t.Fatalf("round trip = %+v", back)
	}
}

func TestWriteSnapshotFile(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	r := NewRegistry()
	r.Counter("a_total").Inc()

	promPath := filepath.Join(dir, "m.prom")
	if err := WriteSnapshotFile(r, promPath, FormatProm); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "a_total 1") {
		t.Errorf("prom file = %q", data)
	}

	jsonPath := filepath.Join(dir, "m.json")
	if err := WriteSnapshotFile(r, jsonPath, FormatJSON); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("json file does not parse: %v", err)
	}
	if snap.Counters["a_total"] != 1 {
		t.Errorf("snapshot = %+v", snap)
	}

	// A nil registry still writes a parseable (empty) artifact.
	nilPath := filepath.Join(dir, "nil.json")
	if err := WriteSnapshotFile(nil, nilPath, FormatJSON); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(nilPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("nil-registry json does not parse: %v", err)
	}

	if err := WriteSnapshotFile(r, filepath.Join(dir, "x"), "yaml"); err == nil {
		t.Error("unknown format accepted")
	}
}
