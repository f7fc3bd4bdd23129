package wire

import (
	"encoding/binary"
	"fmt"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
)

// Frame is one wire unit: a single protocol message tagged with the
// session it belongs to and the direction it travels. The paper's
// processes exchange opaque finite-alphabet messages; the frame adds only
// what multiplexing over one shared link requires.
type Frame struct {
	// Session routes the frame to one of the multiplexed sessions.
	Session uint64
	// Dir is the logical direction (SToR for data, RToS for acks).
	Dir channel.Dir
	// Msg is the protocol message, a value from the protocol's alphabet.
	Msg msg.Msg
}

// Wire format: magic, version, uvarint session, direction byte,
// uvarint-length-prefixed message bytes, then a 4-byte big-endian FNV-1a
// checksum over everything before it. The length prefix makes the payload
// self-delimiting (the same framing msg.AppendMsg uses for state keys);
// the checksum makes every single-byte corruption detectable, so a
// damaged frame is rejected at decode instead of mis-decoding into a
// different in-alphabet message.
const (
	frameMagic   = 0xA7
	frameVersion = 0x01
	// checksumLen is the trailing FNV-1a 32 checksum size.
	checksumLen = 4
	// maxFrameMsgLen bounds the declared payload length; protocol
	// alphabets are tiny, and the bound keeps a corrupt length prefix
	// from asking the decoder for gigabytes.
	maxFrameMsgLen = 1 << 16
)

// AppendFrame appends f's wire encoding to buf and returns the extended
// slice. It allocates nothing beyond growing buf.
func AppendFrame(buf []byte, f Frame) []byte {
	start := len(buf)
	buf = append(buf, frameMagic, frameVersion)
	buf = binary.AppendUvarint(buf, f.Session)
	buf = append(buf, byte(f.Dir))
	buf = binary.AppendUvarint(buf, uint64(len(f.Msg)))
	buf = append(buf, f.Msg...)
	sum := checksum(buf[start:])
	return binary.BigEndian.AppendUint32(buf, sum)
}

// EncodeFrame returns f's wire encoding in a fresh buffer.
func EncodeFrame(f Frame) []byte {
	return AppendFrame(make([]byte, 0, 16+len(f.Msg)), f)
}

// FrameView is a decoded frame whose payload still aliases the encoded
// buffer: DecodeFrameInto fills one without copying, so an arrival that
// owns the buffer can inspect session, direction, and payload with zero
// allocations and copy the payload out only if it keeps the frame.
type FrameView struct {
	// Session routes the frame to one of the multiplexed sessions.
	Session uint64
	// Dir is the logical direction (SToR for data, RToS for acks).
	Dir channel.Dir
	// Payload aliases the encoded buffer; it is valid only until the
	// buffer is reused or released.
	Payload []byte
}

// Msg copies the payload out into an owned message value.
func (v *FrameView) Msg() msg.Msg { return msg.Msg(v.Payload) }

// DecodeFrameInto parses exactly one frame from data into v without
// copying the payload (v.Payload aliases data). It is strict: bad magic,
// a truncated or oversized payload, an unknown direction, a checksum
// mismatch, or trailing bytes are all errors — a corrupted frame must be
// rejected, never mis-decoded into a different message.
func DecodeFrameInto(v *FrameView, data []byte) error {
	if len(data) < 2+1+1+1+checksumLen {
		return fmt.Errorf("wire: frame too short (%d bytes)", len(data))
	}
	if data[0] != frameMagic {
		return fmt.Errorf("wire: bad frame magic 0x%02x", data[0])
	}
	if data[1] != frameVersion {
		return fmt.Errorf("wire: unsupported frame version %d", data[1])
	}
	body, tail := data[:len(data)-checksumLen], data[len(data)-checksumLen:]
	if got, want := binary.BigEndian.Uint32(tail), checksum(body); got != want {
		return fmt.Errorf("wire: frame checksum mismatch (got %08x, want %08x)", got, want)
	}
	rest := body[2:]
	session, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("wire: bad session id varint")
	}
	rest = rest[n:]
	if len(rest) < 1 {
		return fmt.Errorf("wire: frame truncated before direction")
	}
	dir := channel.Dir(rest[0])
	if dir != channel.SToR && dir != channel.RToS {
		return fmt.Errorf("wire: bad frame direction %d", int(dir))
	}
	rest = rest[1:]
	msgLen, n := binary.Uvarint(rest)
	if n <= 0 || msgLen > maxFrameMsgLen {
		return fmt.Errorf("wire: bad message length varint")
	}
	rest = rest[n:]
	if uint64(len(rest)) != msgLen {
		return fmt.Errorf("wire: message length %d does not match remaining %d bytes", msgLen, len(rest))
	}
	v.Session, v.Dir, v.Payload = session, dir, rest
	return nil
}

// PeekFrameSession extracts the session id from an encoded frame without
// validating the rest — the impairment layer uses it to pick a lock
// shard. Frames that do not parse report ok=false (and shard together).
func PeekFrameSession(frame []byte) (session uint64, ok bool) {
	if len(frame) < 3 || frame[0] != frameMagic {
		return 0, false
	}
	session, n := binary.Uvarint(frame[2:])
	return session, n > 0
}

// checksum is FNV-1a 32 over b, inlined so the hot path pays a tight
// byte loop instead of a hash.Hash allocation and interface calls.
func checksum(b []byte) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, c := range b {
		h = (h ^ uint32(c)) * prime32
	}
	return h
}
