// Package cliutil factors the flag plumbing shared by the stp* commands:
// flag-set parsing, input-sequence and list parsing, the -metrics/
// -metrics-format snapshot pair, the "-" = stdout output rule, and
// numeric flag validation with uniform error text. Keeping it here means
// every CLI rejects bad values the same way (clear message on stderr,
// exit 2) instead of each command clamping or ignoring them differently.
package cliutil

import (
	"bytes"
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

// Parse parses a command's args into fs, which prints any complaint.
// done reports that the command line ends here: after -h with exit code
// 0, on a bad flag with 2.
func Parse(fs *flag.FlagSet, args []string) (code int, done bool) {
	switch err := fs.Parse(args); err {
	case nil:
		return 0, false
	case flag.ErrHelp:
		return 0, true
	}
	return 2, true
}

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

// SplitList splits a comma-separated flag value, trimming blanks and
// dropping empty fields.
func SplitList(arg string) []string {
	var out []string
	for _, f := range strings.Split(arg, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// ParseList parses a comma-separated axis flag ("4,16,64") with parse;
// an axis needs at least one value.
func ParseList[T any](arg string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range SplitList(arg) {
		v, err := parse(f)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", f, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty axis")
	}
	return out, nil
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

// WriteFile writes data to path, or to stdout when path is "-": the rule
// behind every -report, -o, -markdown and -metrics flag.
func WriteFile(path string, stdout io.Writer, data []byte) error {
	if path == "-" {
		_, err := stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// WriteJSON writes v, indented, to path ("-" = stdout).
func WriteJSON(path string, stdout io.Writer, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return WriteFile(path, stdout, append(data, '\n'))
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

// Finish writes the snapshot to m.Path ("-" = stdout; a no-op when
// disabled) and merges a failure into the exit code: a failed snapshot
// turns success into a usage-style exit 2 but never masks a non-zero
// verdict. prefix labels the error message with the command name.
func (m *Metrics) Finish(prefix string, code int, stdout, stderr io.Writer) int {
	if !m.Enabled() {
		return code
	}
	var buf bytes.Buffer
	err := m.Registry().Snapshot().WriteFormat(&buf, m.Format)
	if err == nil {
		err = WriteFile(m.Path, stdout, buf.Bytes())
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", prefix, err)
		if code == 0 {
			return 2
		}
	}
	return code
}
