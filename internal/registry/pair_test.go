package registry_test

import (
	"testing"

	"seqtx/internal/protocol"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
)

// pairParams are the benchmark fleets' parameters: alpha(m=8)'s domain
// and selrepeat's window of 16.
var pairParams = registry.Params{M: 8, Timeout: 4, Window: 16}

// TestPairAllocBudget: a Spec carves its halves and their slices from
// slabs, so a session's Pair costs a share of a chunk, not an allocation
// of each. Once the slabs are warm, 1 024 Pairs of every protocol
// allocate 64 times or fewer in all.
func TestPairAllocBudget(t *testing.T) {
	const pairs, budget = 1024, 64
	input := seq.FromInts(0, 1, 2, 3, 4, 5, 6, 7)
	for _, name := range registry.ProtocolNames() {
		t.Run(name, func(t *testing.T) {
			pair := func() {
				for i := 0; i < pairs; i++ {
					if _, _, err := registry.Pair(name, pairParams, input); err != nil {
						t.Fatal(err)
					}
				}
			}
			pair() // builds the Spec and grows its chunks to full size
			if a := testing.AllocsPerRun(1, pair); a > budget {
				t.Errorf("%d Pairs allocated %v times, want at most %d", pairs, a, budget)
			}
		})
	}
}

// TestHalvesIndependent: halves carved from one Spec's slabs share no
// state with the caller or with each other. The sender keeps its own
// copy of its input, and two sessions stepped side by side each write
// exactly their own input.
func TestHalvesIndependent(t *testing.T) {
	t.Parallel()
	x1 := seq.FromInts(0, 1, 2, 3, 4, 5, 6, 7)
	x2 := seq.FromInts(7, 6, 5, 4, 3, 2, 1, 0)
	for _, name := range registry.ProtocolNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			t.Run("private-input", func(t *testing.T) {
				tape := x1.Clone()
				s, r, err := registry.Pair(name, pairParams, tape)
				if err != nil {
					t.Fatal(err)
				}
				for i := range tape {
					tape[i] = 9
				}
				if got := complete(t, []session{{s: s, r: r}})[0]; !got.Equal(x1) {
					t.Errorf("after the caller overwrote its tape, the receiver wrote %s, want %s", got, x1)
				}
			})
			t.Run("two-pairs", func(t *testing.T) {
				s1, r1, err := registry.Pair(name, pairParams, x1)
				if err != nil {
					t.Fatal(err)
				}
				s2, r2, err := registry.Pair(name, pairParams, x2)
				if err != nil {
					t.Fatal(err)
				}
				got := complete(t, []session{{s: s1, r: r1}, {s: s2, r: r2}})
				if !got[0].Equal(x1) || !got[1].Equal(x2) {
					t.Errorf("side by side, the receivers wrote %s and %s, want %s and %s", got[0], got[1], x1, x2)
				}
			})
		})
	}
}

// session is one pair of halves.
type session struct {
	s protocol.Sender
	r protocol.Receiver
}

// complete steps the sessions in turn over perfect links — a sender tick,
// its messages delivered in order, the replies delivered back — until
// every sender is done, and returns what each receiver wrote.
func complete(t *testing.T, sessions []session) []seq.Seq {
	t.Helper()
	out := make([]seq.Seq, len(sessions))
	for round := 0; round < 1000; round++ {
		done := true
		for i, ss := range sessions {
			if ss.s.Done() {
				continue
			}
			done = false
			for _, d := range ss.s.Step(protocol.TickEvent()) {
				acks, writes := ss.r.Step(protocol.RecvEvent(d))
				out[i] = append(out[i], writes...)
				for _, a := range acks {
					ss.s.Step(protocol.RecvEvent(a))
				}
			}
		}
		if done {
			return out
		}
	}
	t.Fatalf("the senders are not done after 1000 rounds; written so far %v", out)
	return nil
}

// BenchmarkPair: one session's halves, for the fleet's two protocols.
func BenchmarkPair(b *testing.B) {
	input := seq.FromInts(0, 1, 2, 3, 4, 5, 6, 7)
	for _, c := range []struct {
		name string
		p    registry.Params
	}{
		{"alpha", registry.Params{M: 8}},
		{"selrepeat", registry.Params{M: 64, Window: 16}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := registry.Pair(c.name, c.p, input); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
