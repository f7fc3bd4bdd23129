package soak

import (
	"bytes"
	"encoding/json"
	"testing"

	"seqtx/internal/channel"
	"seqtx/internal/faults"
	"seqtx/internal/sim"
)

// TestSeedReproducibility pins the determinism contract the whole soak
// subsystem leans on: for every protocol × channel kind in the campaign
// zoo, running the seeded random schedule twice yields byte-identical
// trace JSON. Any hidden nondeterminism (map iteration leaking into
// choices, shared rng state, time dependence) breaks this immediately.
// TestSubSeedDerivation pins the seed-derivation scheme: golden values
// (so recorded campaigns replay seed-exact across refactors) plus the
// decorrelation property the derivation exists for — the protocol and
// adversary streams must differ from each other and from the raw seed.
// Before this scheme, build threaded the same c.Seed into both the
// protocol's Params.Seed and the adversary's RNG, handing two supposedly
// independent randomness consumers identical streams.
func TestSubSeedDerivation(t *testing.T) {
	t.Parallel()
	golden := []struct {
		seed      int64
		protocol  int64
		adversary int64
	}{
		{0, 8925147908211217488, 3823104708042019536},
		{1, -8024952779896270477, 6612384563142513815},
		{42, -4673693320629877365, -6600770214069590626},
		{-7, 8047763349653048693, 2870549360921897678},
		{1 << 62, -594431027414656056, 4286315861617638626},
	}
	for _, g := range golden {
		if got := faults.SubSeed(g.seed, streamProtocol); got != g.protocol {
			t.Errorf("faults.SubSeed(%d, protocol) = %d, want %d", g.seed, got, g.protocol)
		}
		if got := faults.SubSeed(g.seed, streamAdversary); got != g.adversary {
			t.Errorf("faults.SubSeed(%d, adversary) = %d, want %d", g.seed, got, g.adversary)
		}
	}
	// Decorrelation: across a spread of seeds the two streams never
	// coincide with each other or with the raw seed.
	for seed := int64(-1000); seed <= 1000; seed++ {
		p, a := faults.SubSeed(seed, streamProtocol), faults.SubSeed(seed, streamAdversary)
		if p == a {
			t.Errorf("seed %d: protocol and adversary streams coincide (%d)", seed, p)
		}
		if p == seed || a == seed {
			t.Errorf("seed %d: derived stream equals raw seed", seed)
		}
	}
}

// TestStreamsDecorrelated proves the fix at the case level: the sub-seed
// handed to the protocol's Params and the one handed to the adversary
// differ from each other and from the raw case seed, and the case still
// builds under the derivation.
func TestStreamsDecorrelated(t *testing.T) {
	t.Parallel()
	c := Case{
		Protocol:  zoo[0].protocol,
		Params:    zoo[0].params,
		Input:     zoo[0].input,
		Kind:      channel.KindFIFO,
		Adversary: "random",
		Plan:      "none",
		Seed:      42,
	}
	// The derived protocol seed placed into Params must differ from both
	// the raw case seed and the adversary's sub-seed.
	ps := faults.SubSeed(c.Seed, streamProtocol)
	as := faults.SubSeed(c.Seed, streamAdversary)
	if ps == c.Seed || as == c.Seed || ps == as {
		t.Fatalf("sub-seeds not decorrelated: case=%d protocol=%d adversary=%d", c.Seed, ps, as)
	}
	if _, _, _, err := c.build(); err != nil {
		t.Fatalf("build: %v", err)
	}
}

func TestSeedReproducibility(t *testing.T) {
	t.Parallel()
	runTrace := func(c Case) []byte {
		t.Helper()
		w, adv, _, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.ID(), err)
		}
		w.StartTrace()
		if _, err := sim.Run(w, adv, sim.Config{
			MaxSteps:         1500,
			StopWhenComplete: true,
			ProgressDeadline: 400,
		}); err != nil {
			t.Fatalf("%s: %v", c.ID(), err)
		}
		data, err := json.Marshal(w.Trace)
		if err != nil {
			t.Fatalf("%s: %v", c.ID(), err)
		}
		return data
	}
	for _, z := range zoo {
		for _, kind := range kindOrder {
			if _, run := z.kinds[kind]; !run {
				continue
			}
			c := Case{
				Protocol:  z.protocol,
				Params:    z.params,
				Input:     z.input,
				Kind:      kind,
				Adversary: "random",
				Plan:      "none",
				Seed:      42,
			}
			a, b := runTrace(c), runTrace(c)
			if !bytes.Equal(a, b) {
				t.Errorf("%s/%s: same seed, different traces", z.protocol, kind)
			}
			// A different seed must (for the random schedule) change the
			// trace — otherwise the seed isn't actually threaded through.
			c.Seed = 43
			if d := runTrace(c); bytes.Equal(a, d) {
				t.Logf("%s/%s: seeds 42 and 43 coincide (legal but suspicious)", z.protocol, kind)
			}
		}
	}
}
