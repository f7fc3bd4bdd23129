package mc

import (
	"testing"

	"seqtx/internal/channel"
	"seqtx/internal/protocol"
	"seqtx/internal/protocol/abp"
	"seqtx/internal/protocol/naive"
	"seqtx/internal/protocol/stab"
	"seqtx/internal/seq"
)

// TestStabilizingProvenOnBoundedChannel is the positive half of the
// stabilization mode: the self-stabilizing protocol, on the channel kind
// whose capacity bound it assumes, is PROVEN to converge — the corrupted
// quotient graph exhausts with no bad write on any cycle, so every run
// from every explored corrupted start performs only finitely many bad
// writes, with a finite worst-case stabilization depth.
func TestStabilizingProvenOnBoundedChannel(t *testing.T) {
	t.Parallel()
	spec, err := stab.New(3, channel.DefaultBoundedCap)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CheckStabilize(spec, seq.FromInts(2, 0, 1), channel.KindBounded, StabilizeConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted || res.Truncated {
		t.Fatalf("frontier not exhausted (states=%d depth=%d): no proof", res.States, res.Depth)
	}
	if res.Refuted {
		t.Fatalf("stab refuted on its own model:\n%s", res.Witness)
	}
	if !res.Stabilizes() {
		t.Fatal("Stabilizes() = false on an exhausted, unrefuted check")
	}
	if res.Roots == 0 || res.States < res.Roots {
		t.Fatalf("implausible exploration: roots=%d states=%d", res.Roots, res.States)
	}
	// Corruption must actually have been exercised: some corrupted roots
	// make bad writes before converging, at a finite worst-case depth.
	if res.BadWrites == 0 || res.LastBadDepth < 0 {
		t.Fatalf("no bad writes explored (BadWrites=%d LastBadDepth=%d): frontier too tame",
			res.BadWrites, res.LastBadDepth)
	}
	if res.LastBadDepth > res.Depth {
		t.Fatalf("LastBadDepth %d exceeds explored depth %d", res.LastBadDepth, res.Depth)
	}
	if res.ConvergedRoots == 0 {
		t.Fatal("no root can reach full suffix alignment")
	}
}

// TestStabilizeWorkerCountInvariant pins the engine contract for the
// stabilization mode: the verdict and the explored graph's shape are the
// same in two runs, and the golden table's.
func TestStabilizeWorkerCountInvariant(t *testing.T) {
	t.Parallel()
	spec, err := stab.New(2, channel.DefaultBoundedCap)
	if err != nil {
		t.Fatal(err)
	}
	agreeTwice(t, "stabilize/stab2/bounded", func() (string, error) {
		res, err := CheckStabilize(spec, seq.FromInts(1, 0), channel.KindBounded, StabilizeConfig{Seed: 7, Scrambles: 8})
		if err != nil {
			return "", err
		}
		return stabilizeLine(res) + "\n" + witnessString(res.Witness), nil
	})
}

// TestStabRefutedOnUnboundedDup is the boundary of the positive claim:
// the SAME protocol on an unbounded duplicating channel loses the
// counting argument (the adversary hoards more than c stale copies and
// replays them forever), and the checker finds the lasso.
func TestStabRefutedOnUnboundedDup(t *testing.T) {
	t.Parallel()
	spec, err := stab.New(3, channel.DefaultBoundedCap)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CheckStabilize(spec, seq.FromInts(2, 0, 1), channel.KindDup,
		StabilizeConfig{Seed: 1, Scrambles: 8, MaxStates: 1 << 16, MaxDepth: 48})
	if err != nil {
		t.Fatal(err)
	}
	assertRefuted(t, res)
}

// TestNonStabilizingZooRefuted pins the negative half across the zoo: the
// deliberately weak protocols admit runs with infinitely many bad writes
// from corrupted starts, each refuted with a lasso witness.
func TestNonStabilizingZooRefuted(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		spec func() (protocol.Spec, error)
		kind channel.Kind
	}{
		{"naive/dup", func() (protocol.Spec, error) { return naive.NewWriteEveryData(2) }, channel.KindDup},
		{"flood/dup", func() (protocol.Spec, error) { return naive.NewFlood(2) }, channel.KindDup},
		{"abp/dup", func() (protocol.Spec, error) { return abp.New(2) }, channel.KindDup},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			spec, err := tc.spec()
			if err != nil {
				t.Fatal(err)
			}
			res, err := CheckStabilize(spec, seq.FromInts(0, 1), tc.kind,
				StabilizeConfig{Seed: 3, Scrambles: 8, MaxStates: 1 << 16, MaxDepth: 48})
			if err != nil {
				t.Fatal(err)
			}
			assertRefuted(t, res)
		})
	}
}

func assertRefuted(t *testing.T, res *StabilizeResult) {
	t.Helper()
	if !res.Refuted {
		t.Fatalf("not refuted (states=%d depth=%d badWrites=%d exhausted=%v)",
			res.States, res.Depth, res.BadWrites, res.Exhausted)
	}
	if res.Witness == nil || len(res.Witness.Actions) == 0 {
		t.Fatal("refuted without a witness")
	}
	if res.WitnessCycleLen < 1 {
		t.Fatalf("witness cycle length %d", res.WitnessCycleLen)
	}
	if res.WitnessRootScramble < 0 || res.WitnessRootJunk < 0 {
		t.Fatalf("witness root not identified: scramble=%d junk=%d",
			res.WitnessRootScramble, res.WitnessRootJunk)
	}
	// The shrunken-lasso contract: the stem is a BFS-shortest discovery
	// path and the cycle a shortest return path, so the whole witness
	// stays small on these tiny systems.
	if len(res.Witness.Actions) > 64 {
		t.Fatalf("witness suspiciously long: %d actions", len(res.Witness.Actions))
	}
}
