// Command stpbounds prints the paper's bound alpha(m) and, on request,
// demonstrates tightness: it enumerates the repetition-free sequences,
// ranks/unranks them, and reports the prefix-monotone encodability of a
// user-given set.
//
// Usage:
//
//	stpbounds -m 6            # alpha table up to m = 6 and the m = 6 census
//	stpbounds -m 3 -list      # enumerate all alpha(3) sequences with ranks
//	stpbounds -m 2 -encode "0,0;1;1,1"   # try to encode a set (';'-separated)
package main

import (
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"strings"

	"seqtx/internal/alpha"
	"seqtx/internal/cliutil"
	"seqtx/internal/seq"
	"seqtx/internal/tablefmt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one stpbounds command line (args without the program
// name) and returns its exit code: 1 on a failure, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stpbounds", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		m      = fs.Int("m", 6, "sender alphabet size")
		list   = fs.Bool("list", false, "enumerate all repetition-free sequences with ranks")
		encode = fs.String("encode", "", "data sequences to encode, e.g. \"0,0;1;1,1\"")
	)
	if code, done := cliutil.Parse(fs, args); done {
		return code
	}
	if err := cliutil.NonNegative("m", *m); err != nil {
		fmt.Fprintln(stderr, "stpbounds:", err)
		return 2
	}

	tab := tablefmt.New("alpha(m) = m!·sum 1/k! — the tight bound on |X|",
		"m", "alpha(m)", "m!", "log2 alpha(m) bits")
	for i := 0; i <= *m; i++ {
		a, err := alpha.AlphaBig(i)
		if err != nil {
			fmt.Fprintln(stderr, "stpbounds:", err)
			return 1
		}
		fact := new(big.Int).MulRange(1, int64(max(i, 1)))
		bits := a.BitLen() - 1
		tab.AddRow(fmt.Sprint(i), a.String(), fact.String(), fmt.Sprint(bits))
	}
	fmt.Fprintln(stdout, tab)

	if *list {
		if *m > 5 {
			fmt.Fprintln(stderr, "stpbounds: -list limited to m <= 5")
			return 2
		}
		lt := tablefmt.New(fmt.Sprintf("the alpha(%d) repetition-free sequences, DFS order", *m),
			"rank", "sequence")
		for _, s := range seq.RepetitionFree(*m) {
			r, err := alpha.Rank(*m, s)
			if err != nil {
				fmt.Fprintln(stderr, "stpbounds:", err)
				return 1
			}
			lt.AddRow(fmt.Sprint(r), s.String())
		}
		fmt.Fprintln(stdout, lt)
	}

	if *encode != "" {
		set, err := parseSet(*encode)
		if err != nil {
			fmt.Fprintln(stderr, "stpbounds:", err)
			return 2
		}
		enc, err := alpha.Encode(set, *m)
		if err != nil {
			fmt.Fprintf(stdout, "set of %d sequences is NOT prefix-monotone encodable over %d messages:\n  %v\n",
				set.Size(), *m, err)
			return 0
		}
		et := tablefmt.New(fmt.Sprintf("prefix-monotone encoding mu over %d messages", *m),
			"data sequence X", "code mu(X)")
		for _, s := range set.Seqs() {
			code, cerr := enc.Code(s)
			if cerr != nil {
				fmt.Fprintln(stderr, "stpbounds:", cerr)
				return 1
			}
			parts := make([]string, len(code))
			for i, c := range code {
				parts[i] = string(c)
			}
			et.AddRow(s.String(), strings.Join(parts, "·"))
		}
		fmt.Fprintln(stdout, et)
	}
	return 0
}

// parseSet parses a ';'-separated list of sequences ("0,0;1;1,1").
func parseSet(arg string) (*seq.Set, error) {
	var seqs []seq.Seq
	for _, part := range strings.Split(arg, ";") {
		s, err := cliutil.ParseSeq(part)
		if err != nil {
			return nil, err
		}
		seqs = append(seqs, s)
	}
	return seq.NewSet(seqs...)
}
