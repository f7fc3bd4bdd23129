package wire

import (
	"testing"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
)

// protocolAlphabetMsgs collects every message of every registered
// protocol's sender and receiver alphabets (the values the codec must
// carry in production).
func protocolAlphabetMsgs(t *testing.T) []msg.Msg {
	t.Helper()
	params := registry.Params{M: 4, Timeout: 8, Window: 4}
	input := seq.Seq{0, 1, 2, 3}
	var out []msg.Msg
	for _, name := range registry.ProtocolNames() {
		s, r, err := registry.Pair(name, params, input)
		if err != nil {
			t.Fatalf("Pair(%s): %v", name, err)
		}
		out = append(out, s.Alphabet().Msgs()...)
		out = append(out, r.Alphabet().Msgs()...)
	}
	if len(out) == 0 {
		t.Fatal("no alphabet messages registered")
	}
	return out
}

func TestFrameRoundTripAllAlphabets(t *testing.T) {
	sessions := []uint64{0, 1, 63, 64, 1 << 20, 1<<63 - 1}
	for _, m := range protocolAlphabetMsgs(t) {
		for _, dir := range []channel.Dir{channel.SToR, channel.RToS} {
			for _, id := range sessions {
				f := Frame{Session: id, Dir: dir, Msg: m}
				got, err := decodeFrame(EncodeFrame(f))
				if err != nil {
					t.Fatalf("decode(encode(%+v)): %v", f, err)
				}
				if got != f {
					t.Fatalf("round trip: got %+v, want %+v", got, f)
				}
			}
		}
	}
}

func TestDecodeRejectsEverySingleByteCorruption(t *testing.T) {
	frames := []Frame{
		{Session: 1, Dir: channel.SToR, Msg: "d:0"},
		{Session: 900, Dir: channel.RToS, Msg: "a:3"},
		{Session: 7, Dir: channel.SToR, Msg: ""},
	}
	for _, f := range frames {
		raw := EncodeFrame(f)
		for i := range raw {
			for delta := 1; delta < 256; delta++ {
				mut := make([]byte, len(raw))
				copy(mut, raw)
				mut[i] ^= byte(delta)
				if got, err := decodeFrame(mut); err == nil {
					t.Fatalf("corrupting byte %d of %+v (xor %#x) mis-decoded to %+v", i, f, delta, got)
				}
			}
		}
	}
}

func TestDecodeRejectsTruncationAndTrailing(t *testing.T) {
	raw := EncodeFrame(Frame{Session: 12, Dir: channel.SToR, Msg: "d:2"})
	for n := 0; n < len(raw); n++ {
		if _, err := decodeFrame(raw[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
	if _, err := decodeFrame(append(append([]byte{}, raw...), 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestDecodeRejectsOversizedMsg(t *testing.T) {
	big := make([]byte, maxFrameMsgLen+1)
	raw := EncodeFrame(Frame{Session: 1, Dir: channel.SToR, Msg: msg.Msg(big)})
	if _, err := decodeFrame(raw); err == nil {
		t.Fatal("oversized message accepted")
	}
}

func TestAppendFrameReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 64)
	f := Frame{Session: 3, Dir: channel.RToS, Msg: "a:1"}
	out := AppendFrame(buf, f)
	if got, err := decodeFrame(out); err != nil || got != f {
		t.Fatalf("append into reused buffer: got %+v, err %v", got, err)
	}
}

// FuzzFrameCodec checks the two codec invariants on arbitrary inputs:
// encode∘decode is the identity on valid frames, and any single-byte
// mutation of an encoded frame is rejected (never mis-decoded).
func FuzzFrameCodec(f *testing.F) {
	f.Add(uint64(1), true, "d:0", 0, byte(1))
	f.Add(uint64(900), false, "a:3", 3, byte(0xff))
	f.Add(uint64(0), true, "", 1, byte(0x80))
	f.Fuzz(func(t *testing.T, session uint64, sToR bool, payload string, flipPos int, flipXor byte) {
		if len(payload) > maxFrameMsgLen {
			t.Skip()
		}
		dir := channel.SToR
		if !sToR {
			dir = channel.RToS
		}
		fr := Frame{Session: session, Dir: dir, Msg: msg.Msg(payload)}
		raw := EncodeFrame(fr)
		got, err := decodeFrame(raw)
		if err != nil {
			t.Fatalf("decode(encode(%+v)): %v", fr, err)
		}
		if got != fr {
			t.Fatalf("round trip: got %+v, want %+v", got, fr)
		}
		if flipXor == 0 {
			return
		}
		if flipPos < 0 {
			flipPos = -flipPos
		}
		mut := make([]byte, len(raw))
		copy(mut, raw)
		mut[flipPos%len(raw)] ^= flipXor
		if dec, err := decodeFrame(mut); err == nil {
			t.Fatalf("single-byte corruption at %d mis-decoded %+v to %+v", flipPos%len(raw), fr, dec)
		}
	})
}

// FuzzDecodeFrame throws arbitrary bytes at the decoder: it must never
// panic, and anything it does accept must re-encode to a frame that
// decodes identically (no ambiguous acceptances).
// decodeFrame parses exactly one frame from data with the same strict
// rules as DecodeFrameInto, copying the payload into an owned Msg.
func decodeFrame(data []byte) (Frame, error) {
	var v FrameView
	if err := DecodeFrameInto(&v, data); err != nil {
		return Frame{}, err
	}
	return Frame{Session: v.Session, Dir: v.Dir, Msg: v.Msg()}, nil
}

func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeFrame(Frame{Session: 5, Dir: channel.SToR, Msg: "d:1"}))
	f.Add([]byte{frameMagic, frameVersion, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := decodeFrame(data)
		if err != nil {
			return
		}
		again, err := decodeFrame(EncodeFrame(fr))
		if err != nil {
			t.Fatalf("re-encode of accepted frame %+v rejected: %v", fr, err)
		}
		if again != fr {
			t.Fatalf("re-encode changed frame: %+v vs %+v", again, fr)
		}
	})
}
