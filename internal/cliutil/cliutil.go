// Package cliutil factors the flag plumbing shared by the stp* commands:
// input-sequence parsing, the -metrics/-metrics-format snapshot pair, and
// numeric flag validation with uniform error text. Keeping it here means
// every CLI rejects bad values the same way (clear message on stderr,
// exit 2) instead of each command clamping or ignoring them differently.
package cliutil

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"

	"seqtx/internal/obs"
	"seqtx/internal/seq"
)

// ParseSeq parses a comma-separated list of data items ("0,3,1") into a
// sequence. An empty or all-space argument is the empty sequence.
func ParseSeq(arg string) (seq.Seq, error) {
	arg = strings.TrimSpace(arg)
	if arg == "" {
		return seq.Seq{}, nil
	}
	var s seq.Seq
	for _, f := range strings.Split(arg, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad item %q: %w", f, err)
		}
		s = append(s, seq.Item(v))
	}
	return s, nil
}

// NonNegative rejects negative flag values with a uniform message. The
// zero value stays legal (conventionally "use the default").
func NonNegative(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("-%s must be >= 0, got %d", name, v)
	}
	return nil
}

// Positive rejects zero and negative flag values with a uniform message.
func Positive(name string, v int) error {
	if v <= 0 {
		return fmt.Errorf("-%s must be > 0, got %d", name, v)
	}
	return nil
}

// HostPort rejects flag values that are not a host:port address (the
// cluster control- and data-plane flags). The port must be present —
// cluster addresses are always concrete or explicitly :0 — and the host
// may be empty ("listen on all interfaces") or any name or IP.
func HostPort(name, v string) error {
	if v == "" {
		return fmt.Errorf("-%s must be host:port, got empty", name)
	}
	if _, _, err := net.SplitHostPort(v); err != nil {
		return fmt.Errorf("-%s must be host:port: %v", name, err)
	}
	return nil
}

// WriteJSON writes v, indented, to path ("-" = stdout): the -report flag
// of stpload and stpmaster.
func WriteJSON(path string, stdout io.Writer, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Metrics bundles the -metrics/-metrics-format flag pair and the
// write-after-run plumbing shared by every stp* command.
type Metrics struct {
	// Path is the snapshot destination ("" = disabled, "-" = stdout).
	Path string
	// Format is the snapshot format (obs.FormatProm or obs.FormatJSON).
	Format string

	reg *obs.Registry
}

// AddFlags registers the flag pair on fs.
func (m *Metrics) AddFlags(fs *flag.FlagSet) {
	fs.StringVar(&m.Path, "metrics", "",
		"write a metrics snapshot to this file after the run (- = stdout)")
	fs.StringVar(&m.Format, "metrics-format", obs.FormatProm,
		"metrics snapshot format: prom|json")
}

// Enabled reports whether a snapshot was requested.
func (m *Metrics) Enabled() bool { return m.Path != "" }

// Registry returns the registry instrumented code should write into: a
// live one (created on first call) when -metrics was given, nil otherwise
// (the obs nil-sink fast path).
func (m *Metrics) Registry() *obs.Registry {
	if !m.Enabled() {
		return nil
	}
	if m.reg == nil {
		m.reg = obs.NewRegistry()
	}
	return m.reg
}

// Finish writes the snapshot (a no-op when disabled) and merges a write
// failure into the exit code: a failed snapshot turns success into a
// usage-style exit 2 but never masks a non-zero verdict. prefix labels
// the error message with the command name.
func (m *Metrics) Finish(prefix string, code int, errw interface{ Write([]byte) (int, error) }) int {
	if !m.Enabled() {
		return code
	}
	if err := obs.WriteSnapshotFile(m.Registry(), m.Path, m.Format); err != nil {
		fmt.Fprintf(errw, "%s: %v\n", prefix, err)
		if code == 0 {
			return 2
		}
	}
	return code
}
