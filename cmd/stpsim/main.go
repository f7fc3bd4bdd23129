// Command stpsim runs one STP protocol on one channel under one
// adversary and prints the trace and verdicts.
//
// Usage:
//
//	stpsim -proto alpha -m 4 -input 2,0,3,1 -channel dup -adversary replayer
//	stpsim -proto hybrid -input 0,1,0,1 -channel del -adversary dropper -trace
//	stpsim -proto abp -input 0,1 -channel reorder -adversary random -seed 3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"seqtx/internal/channel"
	"seqtx/internal/cliutil"
	"seqtx/internal/protocol/hybrid"
	"seqtx/internal/registry"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one stpsim command line (args without the program name)
// and returns its exit code: 0 on a safe run, 1 on a violation or
// failure, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var metrics cliutil.Metrics
	var (
		proto     = fs.String("proto", "alpha", "protocol: "+strings.Join(registry.ProtocolNames(), "|"))
		m         = fs.Int("m", 4, "domain / sender-alphabet size parameter")
		timeout   = fs.Int("timeout", hybrid.DefaultTimeout, "hybrid timeout (ticks)")
		window    = fs.Int("window", 4, "modseq sequence-number window")
		input     = fs.String("input", "0,1", "comma-separated data items")
		kindName  = fs.String("channel", "dup", "channel: "+strings.Join(registry.KindNames(), "|"))
		advName   = fs.String("adversary", "roundrobin", "adversary: "+strings.Join(registry.AdversaryNames(), "|"))
		seed      = fs.Int64("seed", 1, "adversary seed")
		budget    = fs.Int("budget", 2, "dropper budget / replayer period / withholder hold")
		maxSteps  = fs.Int("max-steps", 5000, "step bound")
		showTrace = fs.Bool("trace", false, "print the full trace")
		replay    = fs.String("replay", "", "JSON witness file (from stpmc -o or a soak counterexample): play exactly its schedule; the flags must build the protocol it names")
	)
	metrics.AddFlags(fs)
	if code, done := cliutil.Parse(fs, args); done {
		return code
	}

	for _, check := range []error{
		cliutil.NonNegative("m", *m),
		cliutil.NonNegative("budget", *budget),
		cliutil.Positive("max-steps", *maxSteps),
	} {
		if check != nil {
			fmt.Fprintln(stderr, "stpsim:", check)
			return 2
		}
	}

	x, err := cliutil.ParseSeq(*input)
	if err != nil {
		fmt.Fprintln(stderr, "stpsim:", err)
		return 2
	}
	params := registry.Params{M: *m, Timeout: *timeout, Window: *window, Seed: *seed, Budget: *budget}
	spec, err := registry.Protocol(*proto, params)
	if err != nil {
		fmt.Fprintln(stderr, "stpsim:", err)
		return 2
	}
	kind, err := registry.Kind(*kindName)
	if err != nil {
		fmt.Fprintln(stderr, "stpsim:", err)
		return 2
	}
	adv, err := registry.Adversary(*advName, params)
	if err != nil {
		fmt.Fprintln(stderr, "stpsim:", err)
		return 2
	}
	var script []trace.Action
	if *replay != "" {
		data, rerr := os.ReadFile(*replay)
		if rerr != nil {
			fmt.Fprintln(stderr, "stpsim:", rerr)
			return 2
		}
		var tr trace.Trace
		if jerr := json.Unmarshal(data, &tr); jerr != nil {
			fmt.Fprintln(stderr, "stpsim:", jerr)
			return 2
		}
		if tr.Name != "" && tr.Name != spec.Name {
			fmt.Fprintf(stderr, "stpsim: %s was recorded for %s, the flags build %s\n", *replay, tr.Name, spec.Name)
			return 2
		}
		if len(tr.Input) > 0 {
			x = tr.Input
		}
		script = tr.Actions()
	}

	link, err := channel.NewLinkOfKind(kind)
	if err != nil {
		fmt.Fprintln(stderr, "stpsim:", err)
		return 1
	}
	w, err := sim.New(spec, x, link)
	if err != nil {
		fmt.Fprintln(stderr, "stpsim:", err)
		return 1
	}
	if *showTrace {
		w.StartTrace()
	}
	cfg := sim.Config{MaxSteps: *maxSteps, StopWhenComplete: true, Obs: metrics.Registry()}
	var res sim.Result
	advLine := adv.Name()
	if *replay != "" {
		// Play the whole witness schedule, exactly: the violating action is
		// often the very last one, after the output already looks complete.
		cfg.StopWhenComplete = false
		advLine = fmt.Sprintf("replay of %d recorded actions", len(script))
		res, err = sim.Accept(w, script, cfg)
	} else {
		res, err = sim.Run(w, adv, cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "stpsim:", err)
		return 1
	}
	if code := metrics.Finish("stpsim", 0, stdout, stderr); code != 0 {
		return code
	}
	if *showTrace {
		fmt.Fprint(stdout, w.Trace)
	}
	fmt.Fprintf(stdout, "protocol   %s\nchannel    %s\nadversary  %s\n", spec.Name, kind, advLine)
	fmt.Fprintf(stdout, "input X    %s\noutput Y   %s\n", x, res.Output)
	fmt.Fprintf(stdout, "steps      %d\ncomplete   %v\nquiescent  %v\n", res.Steps, res.OutputComplete, res.Quiescent)
	if res.SafetyViolation != nil {
		fmt.Fprintf(stdout, "SAFETY VIOLATION: %v\n", res.SafetyViolation)
		return 1
	}
	fmt.Fprintln(stdout, "safety     ok (Y is a prefix of X throughout)")
	if len(res.LearnTimes) > 0 {
		parts := make([]string, len(res.LearnTimes))
		for i, t := range res.LearnTimes {
			parts[i] = fmt.Sprint(t)
		}
		fmt.Fprintf(stdout, "t_i        %s\n", strings.Join(parts, " "))
	}
	return 0
}
