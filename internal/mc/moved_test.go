package mc

import (
	"bytes"
	"testing"

	"seqtx/internal/protocol"
)

// TestFSMSenderMoved holds the protocol-space sender to the Moved
// contract exhaustively: for every table of up to three states, from every
// state, on a tick, its acknowledgement and a message outside M^R, a Step
// of a clone reports Moved() exactly when protocol.AppendKey changed.
func TestFSMSenderMoved(t *testing.T) {
	t.Parallel()
	events := []protocol.Event{protocol.TickEvent(), protocol.RecvEvent("k"), protocol.RecvEvent("a")}
	var before, after []byte
	for n := 1; n <= 3; n++ {
		for _, table := range enumerateSenderTables(n) {
			for st := 0; st < n; st++ {
				for _, ev := range events {
					s := (&fsmSender{table: table, state: st}).Clone()
					before = protocol.AppendKey(before[:0], s)
					s.Step(ev)
					after = protocol.AppendKey(after[:0], s)
					if got, want := s.Moved(), !bytes.Equal(before, after); got != want {
						t.Fatalf("table %v state %d %s: Moved() = %v, key %x -> %x", table, st, ev, got, before, after)
					}
				}
			}
		}
	}
}
