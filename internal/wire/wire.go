// Package wire lifts the repository's STP protocols off the lock-step
// scheduler and onto real asynchronous transports: the same deterministic
// protocol.Sender/protocol.Receiver step machines, driven by live
// concurrent links instead of a synchronous world-step.
//
// The stack, bottom to top:
//
//   - Transport: a bidirectional frame pipe between two ends (SenderEnd
//     hosts every session's S, ReceiverEnd every R). Two implementations:
//     the in-process Inproc and the peer-addressed datagram transport
//     UDPPeer (loopback UDP is a pair of them). Both are
//     allowed to drop, reorder, and (after the impairment layer)
//     duplicate frames — i.e. a live link is a dup+del channel in the
//     paper's sense, which is exactly the setting the protocols were
//     verified for.
//   - The frame codec (codec.go): frames msg.Msg values from the
//     protocol's finite alphabet onto the wire with a session id, a
//     direction, and a checksum, so byte corruption is rejected rather
//     than mis-decoded.
//   - Impairment (impair.go): replays internal/faults plans — burst-drop,
//     partition-heal, corruption, plus wire-native duplication and
//     reordering — against live links, with fault windows counted in
//     frames handled instead of adversary steps.
//   - Session/Mux (session.go, mux.go, engine.go): multiplexes N
//     concurrent sender/receiver pairs over one transport, runs them as
//     inline state machines on a fixed event-loop worker pool (a worker
//     puts what its sessions sent on the transport itself, one burst per
//     round of service; whatever goroutine holds arriving frames stages
//     them, Mux.arrive; an idle worker parks precisely on a short wait), paces
//     each protocol with retransmit ticks, audits the safety invariant
//     (Y is a prefix of X) online on every write, and reports
//     per-session goodput and learning times. Serve (serve.go) is the
//     one fleet runner; paced starts and crash-restart supervision
//     (supervisor.go) are timer events on the same workers.
//   - DetRun (det.go): the deterministic option — the same Session, Mux
//     and loop worker with no goroutine and no wall clock: a seeded
//     driver chooses, step by step, between moving the engine's clock to
//     the worker's next timer and routing one frame its link holds, and
//     turns the worker. The session records the model action of every
//     step it takes, so the run can be replayed inside internal/sim and
//     the two worlds compared output-tape for output-tape (the fidelity
//     argument in DESIGN.md §8).
//
// Everything is instrumented through internal/obs (frames tx/rx, drops
// by cause, dup deliveries, retransmits, an active-session gauge, goodput
// and learning-time histograms) and shuts down gracefully via context
// cancellation and per-session deadlines.
package wire

import (
	"errors"
	"fmt"

	"seqtx/internal/channel"
)

// End identifies one side of a bidirectional transport. All session
// senders live on SenderEnd, all receivers on ReceiverEnd; a frame sent
// from an end is delivered to the opposite end.
type End int

// Transport ends.
const (
	// SenderEnd hosts every session's sender process.
	SenderEnd End = iota + 1
	// ReceiverEnd hosts every session's receiver process.
	ReceiverEnd
)

// String names the end.
func (e End) String() string {
	switch e {
	case SenderEnd:
		return "sender"
	case ReceiverEnd:
		return "receiver"
	default:
		return fmt.Sprintf("End(%d)", int(e))
	}
}

// Dir returns the direction frames travel when sent from this end.
func (e End) Dir() channel.Dir {
	if e == SenderEnd {
		return channel.SToR
	}
	return channel.RToS
}

// Opposite returns the other end.
func (e End) Opposite() End {
	if e == SenderEnd {
		return ReceiverEnd
	}
	return SenderEnd
}

// ErrClosed is returned by Send on a closed transport.
var ErrClosed = errors.New("wire: transport closed")

// Transport is a bidirectional, unreliable frame pipe between the two
// ends. Implementations may drop frames (backpressure, UDP loss) and are
// not required to preserve order — a live link behaves like the paper's
// dup+del channel, and the protocols running over it must already
// tolerate that.
//
// Send must not block indefinitely (drop instead) and must be safe for
// concurrent use; after Close it returns ErrClosed. Recv returns the
// stream of raw wire blobs arriving at an end: each blob is either one
// encoded frame or, when the sender batched, a batch blob (IsBatch
// distinguishes them; SplitBatch iterates the frames). Blobs may come
// from the shared buffer pool — a consumer that finishes with one should
// hand it back with ReleaseBuf (optional: unreturned buffers are simply
// collected by the GC). The channel is closed when the transport closes.
type Transport interface {
	// Name identifies the transport for reports.
	Name() string
	// Send queues one encoded frame from the given end toward the
	// opposite end. The frame bytes are owned by the caller; transports
	// copy what they keep.
	Send(from End, frame []byte) error
	// Recv returns the channel of blobs arriving at the given end.
	Recv(at End) <-chan []byte
	// Close tears the transport down and closes both Recv channels.
	// Close is idempotent.
	Close() error
}

// BatchSender is the optional fast path a Transport may implement: it
// queues an ordered burst of encoded frames in one operation, letting the
// transport coalesce them into a single datagram or channel handoff
// (writev-style). Semantically SendBatch is exactly Send called once per
// frame in order — batching is an amortization, never a new behavior.
// Like Send, the frame bytes are owned by the caller.
type BatchSender interface {
	// SendBatch queues the frames from the given end in order.
	SendBatch(from End, frames [][]byte) error
}

// sendFrames hands frames to tr's batch path when it has one (and the
// burst is genuinely plural), falling back to per-frame Send.
func sendFrames(tr Transport, from End, frames [][]byte) error {
	if len(frames) > 1 {
		if bs, ok := tr.(BatchSender); ok {
			return bs.SendBatch(from, frames)
		}
	}
	for _, f := range frames {
		if err := tr.Send(from, f); err != nil {
			return err
		}
	}
	return nil
}

// ReleaseBuf returns a blob received from a Transport's Recv channel to
// the shared buffer pool. Calling it is optional; passing a buffer that
// did not come from the pool is harmless.
func ReleaseBuf(b []byte) { putBuf(b) }
