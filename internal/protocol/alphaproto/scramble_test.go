package alphaproto_test

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"seqtx/internal/protocol"
	"seqtx/internal/protocol/alphaproto"
	"seqtx/internal/seq"
)

// TestReceiverScramble: a scrambled restart rewrites the receiver's own
// seen and written in place, so it allocates only rng.Perm's slice, a
// clone on either side of it keeps its state, and a clone whose written
// is shorter than m grows it. Not parallel: AllocsPerRun counts the
// whole process's allocations.
func TestReceiverScramble(t *testing.T) {
	const m = 8
	r, err := alphaproto.MustNew(m).NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	r.Step(protocol.RecvEvent(alphaproto.DataMsg(3)))
	key := r.Key()
	rng := rand.New(rand.NewSource(1))

	c := r.Clone()
	for i := 0; i < 32; i++ {
		c.(protocol.Scrambler).Scramble(rng)
		if got := r.Key(); got != key {
			t.Fatalf("scrambling a clone rewrote the original: %s, want %s", got, key)
		}
		// The scrambled clone's seen set matches its written order: a
		// value it wrote is only re-acked, any other is written.
		written := strings.Split(strings.TrimSuffix(strings.TrimPrefix(c.Key(), "alphaR{"), "}"), ".")
		for v := seq.Item(0); v < m; v++ {
			probe := c.Clone()
			_, writes := probe.Step(protocol.RecvEvent(alphaproto.DataMsg(v)))
			if wrote := len(writes) == 1; wrote == slices.Contains(written, strconv.Itoa(int(v))) {
				t.Fatalf("after scramble %d, %s takes %d as new=%v", i, c.Key(), v, wrote)
			}
		}
	}

	c = r.Clone()
	ckey := c.Key()
	r.(protocol.Scrambler).Scramble(rng)
	if got := c.Key(); got != ckey {
		t.Fatalf("scrambling the original rewrote its clone: %s, want %s", got, ckey)
	}

	sc := r.(protocol.Scrambler)
	if a := testing.AllocsPerRun(100, func() { sc.Scramble(rng) }); a > 1 {
		t.Errorf("Scramble allocates %v objects, want at most 1 (rng.Perm's slice)", a)
	}
}
