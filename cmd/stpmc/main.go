// Command stpmc model-checks STP protocols: exhaustive safety
// exploration, product refutation (the executable impossibility proof),
// and boundedness verdicts.
//
// Usage:
//
//	stpmc explore   -proto abp -m 2 -input 0,1 -channel reorder -depth 12
//	stpmc refute    -proto naive -m 2 -x1 0,1 -x2 0,1,0 -channel dup
//	stpmc bounded   -proto hybrid -m 2 -input 0,1,0,1 -channel del -budget 60
//	stpmc stabilize -proto stab -m 3 -cap 2 -input 2,0,1 -channel bounded
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"seqtx/internal/cliutil"
	"seqtx/internal/mc"
	"seqtx/internal/protocol/hybrid"
	"seqtx/internal/registry"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one stpmc command line (args without the program name)
// and returns its exit code: 0 on a clean verdict, 1 on a violation or
// failure, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var metricsFlags cliutil.Metrics
	var (
		proto    = fs.String("proto", "alpha", "protocol: "+strings.Join(registry.ProtocolNames(), "|"))
		m        = fs.Int("m", 2, "domain size parameter")
		timeout  = fs.Int("timeout", hybrid.DefaultTimeout, "hybrid timeout")
		window   = fs.Int("window", 4, "modseq sequence-number window")
		input    = fs.String("input", "0,1", "input sequence (explore/bounded)")
		x1s      = fs.String("x1", "0,1", "first input (refute)")
		x2s      = fs.String("x2", "0,1,0", "second input (refute)")
		kindName = fs.String("channel", "dup", "channel: "+strings.Join(registry.KindNames(), "|"))
		depth    = fs.Int("depth", 12, "exploration depth")
		states   = fs.Int("states", 1<<17, "state cap")
		budget   = fs.Int("budget", 40, "recovery budget (bounded)")
		weak     = fs.Bool("weak", false, "weak boundedness (old messages allowed)")
		faulty   = fs.Bool("faulty", true, "sample points from a one-loss run (bounded)")
		outFile  = fs.String("o", "", "write the counterexample run as JSON (explore/stabilize; replay with stpsim -replay)")
		capBound = fs.Int("cap", 2, "channel-capacity bound assumed by stabilizing protocols")
		scramble = fs.Int("scrambles", 24, "scrambled (S,R) root pairs (stabilize)")
		junk     = fs.Int("junk", 4, "seeded channel fillings per scramble pair (stabilize)")
		seed     = fs.Int64("seed", 1, "root-corruption seed (stabilize)")
	)
	metricsFlags.AddFlags(fs)
	if err := fs.Parse(args[1:]); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	for _, check := range []error{
		cliutil.NonNegative("m", *m),
		cliutil.NonNegative("budget", *budget),
		cliutil.Positive("depth", *depth),
		cliutil.Positive("states", *states),
		cliutil.Positive("cap", *capBound),
		cliutil.Positive("scrambles", *scramble),
		cliutil.Positive("junk", *junk),
	} {
		if check != nil {
			fmt.Fprintln(stderr, "stpmc:", check)
			return 2
		}
	}
	reg := metricsFlags.Registry()
	// emitMetrics writes the snapshot (no-op without -metrics) and turns a
	// write failure into a usage-style exit without masking the verdict.
	emitMetrics := func(code int) int {
		return metricsFlags.Finish("stpmc", code, stderr)
	}
	spec, err := registry.Protocol(*proto, registry.Params{M: *m, Timeout: *timeout, Window: *window, Cap: *capBound})
	if err != nil {
		fmt.Fprintln(stderr, "stpmc:", err)
		return 2
	}
	kind, err := registry.Kind(*kindName)
	if err != nil {
		fmt.Fprintln(stderr, "stpmc:", err)
		return 2
	}

	switch cmd {
	case "explore":
		x, perr := cliutil.ParseSeq(*input)
		if perr != nil {
			fmt.Fprintln(stderr, "stpmc:", perr)
			return 2
		}
		res, eerr := mc.Explore(spec, x, kind, mc.ExploreConfig{
			MaxDepth: *depth, MaxStates: *states, Obs: reg,
		})
		if eerr != nil {
			fmt.Fprintln(stderr, "stpmc:", eerr)
			return emitMetrics(1)
		}
		fmt.Fprintf(stdout, "explored %d states to depth %d (truncated %v)\n", res.States, res.Depth, res.Truncated)
		if res.Violation != nil {
			fmt.Fprintf(stdout, "SAFETY VIOLATION:\n%s", res.Violation)
			if *outFile != "" {
				if werr := writeWitness(*outFile, spec.Name, res.Violation); werr != nil {
					fmt.Fprintln(stderr, "stpmc:", werr)
					return emitMetrics(1)
				}
				fmt.Fprintf(stdout, "witness written to %s\n", *outFile)
			}
			return emitMetrics(1)
		}
		fmt.Fprintln(stdout, "safety holds in every explored state")
		return emitMetrics(0)

	case "refute":
		x1, e1 := cliutil.ParseSeq(*x1s)
		x2, e2 := cliutil.ParseSeq(*x2s)
		if e1 != nil || e2 != nil {
			fmt.Fprintln(stderr, "stpmc: bad inputs:", e1, e2)
			return 2
		}
		res, rerr := mc.Refute(spec, x1, x2, kind, mc.ExploreConfig{
			MaxDepth: *depth, MaxStates: *states, Obs: reg,
		})
		if rerr != nil {
			fmt.Fprintln(stderr, "stpmc:", rerr)
			return emitMetrics(1)
		}
		fmt.Fprintf(stdout, "explored %d product states (truncated %v)\n", res.States, res.Truncated)
		if res.Violation == nil {
			fmt.Fprintln(stdout, "no receiver-indistinguishable counterexample within bounds")
			return emitMetrics(0)
		}
		fmt.Fprintf(stdout, "COUNTEREXAMPLE (the paper's Lemma 1/3 adversary):\n%s", res.Violation)
		return emitMetrics(1)

	case "bounded":
		x, perr := cliutil.ParseSeq(*input)
		if perr != nil {
			fmt.Fprintln(stderr, "stpmc:", perr)
			return 2
		}
		cfg := mc.BoundedConfig{
			Budget: *budget, OldMessagesAllowed: *weak, Obs: reg,
		}
		if *faulty && !*weak {
			cfg.Sampler = sim.NewBudgetDropper(1, 1)
		}
		rep, berr := mc.CheckBounded(spec, x, kind, cfg)
		if berr != nil {
			fmt.Fprintln(stderr, "stpmc:", berr)
			return emitMetrics(1)
		}
		variant := "Definition 2 (fresh messages only)"
		if *weak {
			variant = "weak (§5; old messages allowed, t_i points)"
		}
		fmt.Fprintf(stdout, "variant     %s\nsamples     %d\nmax recovery %d steps\nunrecovered %d\nbounded     %v\n",
			variant, rep.Samples, rep.MaxRecovery, rep.Unrecovered, rep.Bounded())
		return emitMetrics(0)

	case "stabilize":
		x, perr := cliutil.ParseSeq(*input)
		if perr != nil {
			fmt.Fprintln(stderr, "stpmc:", perr)
			return 2
		}
		// Stabilization proofs need the frontier to DRAIN, not merely to
		// be sampled: unless -depth was given explicitly, use the mode's
		// own exhaustive default instead of explore's shallow one.
		sdepth := *depth
		depthSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "depth" {
				depthSet = true
			}
		})
		if !depthSet {
			sdepth = 512
		}
		res, serr := mc.CheckStabilize(spec, x, kind, mc.StabilizeConfig{
			MaxDepth: sdepth, MaxStates: *states,
			Scrambles: *scramble, ChannelJunk: *junk, Seed: *seed, Obs: reg,
		})
		if serr != nil {
			fmt.Fprintln(stderr, "stpmc:", serr)
			return emitMetrics(1)
		}
		claims := "claims self-stabilization"
		if !registry.Stabilizing(*proto) {
			claims = "makes no stabilization claim"
		}
		fmt.Fprintf(stdout, "corrupted roots %d (%s)\n", res.Roots, claims)
		fmt.Fprintf(stdout, "explored %d quotient states to depth %d (exhausted %v, truncated %v)\n",
			res.States, res.Depth, res.Exhausted, res.Truncated)
		fmt.Fprintf(stdout, "bad-write edges %d, worst stabilization depth %d, converging roots %d/%d\n",
			res.BadWrites, res.LastBadDepth, res.ConvergedRoots, res.Roots)
		if res.Refuted {
			fmt.Fprintf(stdout, "REFUTED: does not stabilize (root scramble=%d junk=%d, cycle %d steps):\n%s",
				res.WitnessRootScramble, res.WitnessRootJunk, res.WitnessCycleLen, res.Witness)
			if *outFile != "" {
				if werr := writeWitness(*outFile, spec.Name, res.Witness); werr != nil {
					fmt.Fprintln(stderr, "stpmc:", werr)
					return emitMetrics(1)
				}
				fmt.Fprintf(stdout, "witness written to %s\n", *outFile)
			}
			return emitMetrics(1)
		}
		if res.Stabilizes() {
			fmt.Fprintln(stdout, "PROVEN: every explored corrupted start admits only finitely many bad writes")
			return emitMetrics(0)
		}
		fmt.Fprintln(stdout, "inconclusive: bounds truncated the graph before a proof or refutation")
		return emitMetrics(1)

	default:
		usage(stderr)
		return 2
	}
}

func usage(stderr io.Writer) {
	fmt.Fprintln(stderr, "usage: stpmc <explore|refute|bounded|stabilize> [flags]; run 'stpmc explore -h' etc.")
}

// writeWitness saves the counterexample's input and action schedule as a
// JSON trace that stpsim -replay can re-run.
func writeWitness(path, name string, w *mc.Witness) error {
	tr := &trace.Trace{Name: name, Input: w.Input}
	for i, act := range w.Actions {
		tr.Append(trace.Entry{Time: i, Act: act})
	}
	data, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
