package sim

import (
	"encoding/binary"
	"fmt"

	"seqtx/internal/protocol"
	"seqtx/internal/trace"
)

// CheckFiled re-encodes every object the system has filed and reports the
// first whose bytes are no longer the key it was filed under: a filed
// object that something wrote to.
func (sys *System) CheckFiled() error {
	stale := func(kind string, id int, key string, now []byte) error {
		if key == string(now) {
			return nil
		}
		return fmt.Errorf("%s %d filed as %x now encodes to %x", kind, id, key, now)
	}
	for id, row := range sys.senders.rows {
		_, tag := binary.Uvarint([]byte(row.key))
		if err := stale("sender", id, row.key[tag:], protocol.AppendKey(nil, row.obj)); err != nil {
			return err
		}
	}
	for id, row := range sys.receivers.rows {
		if err := stale("receiver", id, row.key[1:], protocol.AppendKey(nil, row.obj)); err != nil {
			return err
		}
	}
	for id, row := range sys.halves.rows {
		if err := stale("half", id, row.key, row.obj.h.EncodeKey(nil)); err != nil {
			return err
		}
	}
	return nil
}

// MoveOf is the inverse of Action, for driving moves no state enables (a
// scramble's seed is not carried).
func (sys *System) MoveOf(act trace.Action) Move {
	return Move{Kind: act.Kind, Dir: act.Dir, Msg: sys.msgID(act.Msg)}
}

// Filed is the number of objects the system has filed: sender and
// receiver states and channel halves.
func (sys *System) Filed() int {
	return len(sys.senders.rows) + len(sys.receivers.rows) + len(sys.halves.rows)
}
