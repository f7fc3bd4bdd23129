package wire

import (
	"encoding/binary"
	"fmt"
)

// Batch framing: several encoded frames coalesced into one wire blob so
// transports can amortize a syscall (UDP) or a channel handoff (inproc)
// across many frames. The format is strict and self-delimiting:
//
//	batchMagic, batchVersion, uvarint frame count,
//	then per frame: uvarint length, frame bytes.
//
// A batch is only a packaging of an ordered burst — every contained frame
// still carries its own header and checksum and is decoded frame-by-frame
// by the receiver, so batching changes nothing the impairment layer or
// the protocols can observe (DESIGN.md §9). The first byte distinguishes
// a batch blob (batchMagic) from a bare frame (frameMagic), so a Recv
// stream may freely mix the two.
const (
	batchMagic   = 0xA8
	batchVersion = 0x01
	// maxBatchFrames bounds the declared frame count: a corrupt count
	// must not ask the splitter for millions of iterations.
	maxBatchFrames = 4096
	// maxBatchFrameLen bounds each contained frame's declared length
	// (header + max payload + checksum, rounded up).
	maxBatchFrameLen = maxFrameMsgLen + 64
)

// IsBatch reports whether data starts like a batch blob rather than a
// bare frame. It is a routing hint only; SplitBatch still validates.
func IsBatch(data []byte) bool {
	return len(data) >= 2 && data[0] == batchMagic
}

// AppendBatch appends the batch encoding of frames to dst and returns the
// extended slice. It allocates nothing beyond growing dst.
func AppendBatch(dst []byte, frames [][]byte) []byte {
	dst = append(dst, batchMagic, batchVersion)
	dst = binary.AppendUvarint(dst, uint64(len(frames)))
	for _, f := range frames {
		dst = binary.AppendUvarint(dst, uint64(len(f)))
		dst = append(dst, f...)
	}
	return dst
}

// batchOverhead bounds the framing bytes AppendBatch adds around n frames
// (header plus one maximal length prefix per frame).
func batchOverhead(n int) int { return 2 + binary.MaxVarintLen64*(n+1) }

// blobFrames reports how many protocol frames a wire blob carries: the
// declared count for a well-formed batch header, 1 for everything else
// (a bare frame, or a blob too damaged for the count to be trusted —
// arrive will charge it as one decode error anyway). Drop
// accounting uses this so a lost blob is counted in frames, the same
// unit every other transport and hop reports in: the inproc path knows
// its frame count at the send site, while the UDP read loop only holds
// opaque blob bytes and must peek the header.
func blobFrames(blob []byte) int {
	if !IsBatch(blob) || blob[1] != batchVersion {
		return 1
	}
	count, n := binary.Uvarint(blob[2:])
	if n <= 0 || count == 0 || count > maxBatchFrames {
		return 1
	}
	return int(count)
}

// SplitBatch iterates the frames of a batch blob in order, calling fn on
// each (the slice aliases data). It is strict: a bad header, a count or
// length prefix out of bounds, a frame running past the blob, or trailing
// garbage after the last frame are all errors — a damaged batch is
// rejected, never mis-split into different frames. Frames already
// consumed before the error was hit may have been delivered to fn; each
// of those was length-delimited exactly as encoded, and every frame still
// carries its own checksum downstream.
func SplitBatch(data []byte, fn func(frame []byte) error) error {
	if len(data) < 2 {
		return fmt.Errorf("wire: batch too short (%d bytes)", len(data))
	}
	if data[0] != batchMagic {
		return fmt.Errorf("wire: bad batch magic 0x%02x", data[0])
	}
	if data[1] != batchVersion {
		return fmt.Errorf("wire: unsupported batch version %d", data[1])
	}
	rest := data[2:]
	count, n := binary.Uvarint(rest)
	if n <= 0 || count == 0 || count > maxBatchFrames {
		return fmt.Errorf("wire: bad batch frame count")
	}
	rest = rest[n:]
	for i := uint64(0); i < count; i++ {
		flen, n := binary.Uvarint(rest)
		if n <= 0 || flen == 0 || flen > maxBatchFrameLen {
			return fmt.Errorf("wire: bad batch frame %d length prefix", i)
		}
		rest = rest[n:]
		if uint64(len(rest)) < flen {
			return fmt.Errorf("wire: batch frame %d truncated (%d of %d bytes)", i, len(rest), flen)
		}
		if err := fn(rest[:flen]); err != nil {
			return err
		}
		rest = rest[flen:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after batch", len(rest))
	}
	return nil
}
