package channel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"seqtx/internal/msg"
)

// TestInflightMatchesCountsOracle is the model-based test for the sorted
// multiset behind Del, Reorder and Bounded: random Send/Deliver/Drop
// sequences run against a msg.Counts oracle (the map the halves used to
// hold), and after every operation the half must answer Get, Total,
// Deliverable, Support and Key as the oracle does and emit exactly the
// oracle's EncodeKey bytes — so the slice representation partitions
// states exactly as the map did.
func TestInflightMatchesCountsOracle(t *testing.T) {
	t.Parallel()
	alphabet := []msg.Msg{"a", "b", "ab", "d:0", "d:1", "d:10", ""}
	type system struct {
		name     string
		half     Half
		inflight func() multiset
		drops    bool
		cap      int // 0 = unbounded
		prefix   func() []byte
		key      func(oracle msg.Counts) string
	}
	del, reorder, bounded := NewDel(), NewReorder(), NewBounded(3)
	systems := []system{
		{"del", del, func() multiset { return del.inflight }, true, 0,
			func() []byte { return []byte{byte(KindDel)} },
			func(o msg.Counts) string { return "del{" + o.Key() + "}" }},
		{"reorder", reorder, func() multiset { return reorder.inflight }, false, 0,
			func() []byte { return []byte{byte(KindReorder)} },
			func(o msg.Counts) string { return "reorder{" + o.Key() + "}" }},
		{"bounded", bounded, func() multiset { return bounded.inflight }, true, 3,
			func() []byte { return binary.AppendUvarint([]byte{byte(KindBounded)}, 3) },
			func(o msg.Counts) string { return fmt.Sprintf("bounded(3){%s}", o.Key()) }},
	}
	for _, sys := range systems {
		sys := sys
		t.Run(sys.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(1))
			oracle := msg.Counts{}
			for step := 0; step < 4000; step++ {
				m := alphabet[rng.Intn(len(alphabet))]
				switch op := rng.Intn(3); op {
				case 0:
					sys.half.Send(m)
					if sys.cap == 0 || oracle.Total() < sys.cap {
						oracle.Add(m, 1)
					}
				case 1:
					err := sys.half.Deliver(m)
					if (err == nil) != (oracle.Get(m) > 0) {
						t.Fatalf("step %d: Deliver(%q) = %v with %d copies in flight", step, m, err, oracle.Get(m))
					}
					if err == nil {
						oracle.Add(m, -1)
					}
				case 2:
					if can := sys.half.CanDrop(m); can != (sys.drops && oracle.Get(m) > 0) {
						t.Fatalf("step %d: CanDrop(%q) = %v with %d copies in flight", step, m, can, oracle.Get(m))
					}
					err := sys.half.Drop(m)
					if (err == nil) != (sys.drops && oracle.Get(m) > 0) {
						t.Fatalf("step %d: Drop(%q) = %v with %d copies in flight", step, m, err, oracle.Get(m))
					}
					if err == nil {
						oracle.Add(m, -1)
					}
				}

				in := sys.inflight()
				if in.total() != oracle.Total() {
					t.Fatalf("step %d: total %d, oracle %d", step, in.total(), oracle.Total())
				}
				for _, a := range alphabet {
					if in.get(a) != oracle.Get(a) {
						t.Fatalf("step %d: get(%q) = %d, oracle %d", step, a, in.get(a), oracle.Get(a))
					}
					if sys.half.CanDeliver(a) != (oracle.Get(a) > 0) {
						t.Fatalf("step %d: CanDeliver(%q) disagrees with the oracle", step, a)
					}
				}
				// Canonical form: one entry per distinct message, none at
				// zero, strictly ascending.
				if len(in) != len(oracle) {
					t.Fatalf("step %d: %d entries for %d distinct messages: %v", step, len(in), len(oracle), in)
				}
				for i, e := range in {
					if e.n <= 0 || (i > 0 && in[i-1].m >= e.m) {
						t.Fatalf("step %d: not canonical: %v", step, in)
					}
				}
				if got := sys.half.Deliverable(); !got.Equal(oracle) {
					t.Fatalf("step %d: Deliverable() = %s, oracle %s", step, got, oracle)
				}
				support := oracle.Support()
				for i := 0; i <= len(support); i++ {
					m, ok := sys.half.Support(i)
					if ok != (i < len(support)) || (ok && m != support[i]) {
						t.Fatalf("step %d: Support(%d) = %q, %v; oracle support %v", step, i, m, ok, support)
					}
				}
				if got, want := in.encodeKey(nil), oracle.EncodeKey(nil); !bytes.Equal(got, want) {
					t.Fatalf("step %d: multiset key bytes %x, msg.Counts key bytes %x", step, got, want)
				}
				if got, want := sys.half.EncodeKey(nil), oracle.EncodeKey(sys.prefix()); !bytes.Equal(got, want) {
					t.Fatalf("step %d: EncodeKey %x, want %x", step, got, want)
				}
				if got, want := sys.half.Key(), sys.key(oracle); got != want {
					t.Fatalf("step %d: Key %q, want %q", step, got, want)
				}
			}
		})
	}
}
