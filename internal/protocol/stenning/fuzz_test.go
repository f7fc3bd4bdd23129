package stenning_test

import (
	"fmt"
	"testing"

	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/protocol/stenning"
	"seqtx/internal/seq"
)

// FuzzStenningStep hands both ends arbitrary bytes, which is what the
// wire mux does for a protocol with no alphabet to check against. Step
// must never panic, and it must act on a message exactly when the
// message is the canonical spelling of its fields — when re-encoding
// what the old Sscanf formats scan out of it reproduces the same bytes.
// Anything else changes nothing.
func FuzzStenningStep(f *testing.F) {
	for _, x := range []string{
		"d:0:0", "d:2:1", "d:3:9", "d:7:0", "a:3", "a:2", "d:+1:02xyz", "d:01:1", "b:1:2 junk",
		"r:07", "g:07:3", "sa:+1", "", "d:3:-1", "a:03", "a:3 ", "d:99999999999999999999:1",
	} {
		f.Add(x)
	}
	const at = 3 // both ends have moved three positions when x arrives
	f.Fuzz(func(t *testing.T, x string) {
		spec := stenning.New()
		s, _ := spec.NewSender(seq.FromInts(4, 5, 6, 7, 8))
		r, _ := spec.NewReceiver()
		for i := 0; i < at; i++ {
			s.Step(protocol.RecvEvent(msg.Format("a", i)))
			r.Step(protocol.RecvEvent(msg.Format("d", i, 4+i)))
		}

		var i, v int
		_, err := fmt.Sscanf(x, "d:%d:%d", &i, &v)
		canonical := err == nil && i >= 0 && v >= 0 && fmt.Sprintf("d:%d:%d", i, v) == x
		before := r.Key()
		acks, writes := r.Step(protocol.RecvEvent(msg.Msg(x)))
		acked := len(acks) == 1 && acks[0] == msg.Format("a", i)
		var ok bool
		switch {
		case canonical && i == at: // the expected position: written and acknowledged
			ok = acked && len(writes) == 1 && writes[0] == seq.Item(v) && r.Key() != before
		case canonical && i < at: // a stale position: re-acknowledged
			ok = acked && len(writes) == 0 && r.Key() == before
		default: // a future position, or not a message at all
			ok = len(acks)+len(writes) == 0 && r.Key() == before
		}
		if !ok {
			t.Fatalf("receiver on %q (canonical=%v): acks %v, writes %s, key %s -> %s",
				x, canonical, acks, writes, before, r.Key())
		}

		before = s.Key()
		if sends := s.Step(protocol.RecvEvent(msg.Msg(x))); len(sends) != 0 {
			t.Fatalf("sender on %q: sends %v", x, sends)
		}
		if advanced := s.Key() != before; advanced != (x == fmt.Sprintf("a:%d", at)) {
			t.Fatalf("sender on %q: advanced = %v", x, advanced)
		}
	})
}
