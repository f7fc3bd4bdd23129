package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// Exposition formats for snapshots.
const (
	// FormatProm is the Prometheus text exposition format (metrics only;
	// events have no Prometheus representation).
	FormatProm = "prom"
	// FormatJSON is the full JSON snapshot, events included.
	FormatJSON = "json"
)

// splitName separates an optional baked-in label suffix from a metric
// name: `foo{cause="x"}` -> (`foo`, `cause="x"`).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// promValue renders a float in Prometheus text format.
func promValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return fmt.Sprintf("%g", v)
	}
}

// typedNames tracks which base names already got a # TYPE line (several
// labeled series share one).
type typedNames map[string]bool

func (t typedNames) header(w io.Writer, base, typ string) error {
	if t[base] {
		return nil
	}
	t[base] = true
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, typ)
	return err
}

// WritePrometheus renders the snapshot's metrics in the Prometheus text
// exposition format, sorted by name so output is deterministic.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	typed := typedNames{}
	for _, name := range sortedKeys(s.Counters) {
		base, labels := splitName(name)
		if err := typed.header(w, base, "counter"); err != nil {
			return err
		}
		series := base
		if labels != "" {
			series = base + "{" + labels + "}"
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", series, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		base, labels := splitName(name)
		if err := typed.header(w, base, "gauge"); err != nil {
			return err
		}
		series := base
		if labels != "" {
			series = base + "{" + labels + "}"
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", series, promValue(s.Gauges[name])); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		base, labels := splitName(name)
		if err := typed.header(w, base, "histogram"); err != nil {
			return err
		}
		h := s.Histograms[name]
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			le := `le="` + promValue(b.UpperBound) + `"`
			if labels != "" {
				le = labels + "," + le
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", base, le, cum); err != nil {
				return err
			}
		}
		suffix := ""
		if labels != "" {
			suffix = "{" + labels + "}"
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, suffix, promValue(h.Sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", base, suffix, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the full snapshot (metrics + events) as indented
// JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteFormat renders the snapshot in the named format (FormatProm or
// FormatJSON).
func (s Snapshot) WriteFormat(w io.Writer, format string) error {
	switch format {
	case FormatProm:
		return s.WritePrometheus(w)
	case FormatJSON:
		return s.WriteJSON(w)
	default:
		return fmt.Errorf("obs: unknown snapshot format %q (have %s, %s)", format, FormatProm, FormatJSON)
	}
}

// WriteSnapshotFile is the CLI helper behind the -metrics flags: it
// renders r's snapshot to path ("-" or "" = stdout) in the given format.
// A nil Registry writes an empty snapshot, so a disabled pipeline still
// produces a parseable artifact.
func WriteSnapshotFile(r *Registry, path, format string) error {
	snap := r.Snapshot()
	if path == "" || path == "-" {
		return snap.WriteFormat(os.Stdout, format)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteFormat(f, format); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
