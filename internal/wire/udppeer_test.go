package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"seqtx/internal/channel"
	"seqtx/internal/obs"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
)

// waitCounter polls a counter until it reaches want or the deadline
// passes (UDP delivery is asynchronous; the read loop needs a moment).
func waitCounter(t *testing.T, reg *obs.Registry, name string, want int64) int64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := reg.Snapshot().Counters[name]
		if got >= want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// peerPair binds a sender-hosting and a receiver-hosting peer on
// loopback, points them at each other, and closes both with the test.
// recvBuffer sizes each inbound buffer in blobs.
func peerPair(t *testing.T, regS, regR *obs.Registry, recvBuffer int) (sEnd, rEnd *UDPPeer) {
	t.Helper()
	sEnd, err := newUDPPeer(SenderEnd, "127.0.0.1:0", "", regS, recvBuffer)
	if err != nil {
		t.Fatalf("sender peer: %v", err)
	}
	t.Cleanup(func() { sEnd.Close() })
	rEnd, err = newUDPPeer(ReceiverEnd, "127.0.0.1:0", sEnd.LocalAddr().String(), regR, recvBuffer)
	if err != nil {
		t.Fatalf("receiver peer: %v", err)
	}
	t.Cleanup(func() { rEnd.Close() })
	if err := sEnd.SetRemote(rEnd.LocalAddr().String()); err != nil {
		t.Fatalf("SetRemote: %v", err)
	}
	return sEnd, rEnd
}

func TestBlobFrames(t *testing.T) {
	frame := EncodeFrame(Frame{Session: 7, Dir: channel.SToR, Msg: "d0"})
	if got := blobFrames(frame); got != 1 {
		t.Errorf("bare frame counts %d, want 1", got)
	}
	frames := make([][]byte, 5)
	for i := range frames {
		frames[i] = EncodeFrame(Frame{Session: uint64(i + 1), Dir: channel.SToR, Msg: "d"})
	}
	blob := AppendBatch(nil, frames)
	if got := blobFrames(blob); got != 5 {
		t.Errorf("batch of 5 counts %d, want 5", got)
	}
	// Damaged headers fall back to 1 — never a wild count.
	if got := blobFrames([]byte{batchMagic}); got != 1 {
		t.Errorf("truncated blob counts %d, want 1", got)
	}
	if got := blobFrames([]byte{batchMagic, batchVersion, 0x00}); got != 1 {
		t.Errorf("zero-count blob counts %d, want 1", got)
	}
	huge := append([]byte{batchMagic, batchVersion}, 0xff, 0xff, 0xff, 0x7f)
	if got := blobFrames(huge); got != 1 {
		t.Errorf("absurd-count blob counts %d, want 1", got)
	}
}

// TestUDPBackpressureDropCountsBatchFrames pins the drop-accounting fix:
// a batch blob lost to a full inbound buffer must be charged with its
// frame count (as Inproc.SendBatch does), not as a single unit.
func TestUDPBackpressureDropCountsBatchFrames(t *testing.T) {
	reg := obs.NewRegistry()
	// A 1-blob inbound buffer makes the drop path deterministic: the
	// first blob parks in the channel, the rest drop.
	tr, _ := peerPair(t, nil, reg, 1)

	frames := make([][]byte, 5)
	for i := range frames {
		frames[i] = EncodeFrame(Frame{Session: uint64(i + 1), Dir: channel.SToR, Msg: "dat"})
	}
	// Three 5-frame batch datagrams, nobody draining Recv: the first
	// fills the buffer, the other two drop — 10 frames, not 2 blobs.
	for i := 0; i < 3; i++ {
		if err := tr.SendBatch(SenderEnd, frames); err != nil {
			t.Fatalf("SendBatch %d: %v", i, err)
		}
	}
	if got := waitCounter(t, reg, `wire_frames_dropped_total{cause="backpressure"}`, 10); got != 10 {
		t.Errorf("backpressure drops = %d frames, want 10 (2 blobs x 5 frames)", got)
	}
}

// TestUDPForeignInjection is the source-validation test through the
// loopback pair and a live mux: a third socket injects well-formed
// frames at both ends; they must be counted as foreign and never
// surface in the mux — no rx, no unknown-session drops, nothing.
func TestUDPForeignInjection(t *testing.T) {
	reg := obs.NewRegistry()
	tr, err := NewUDP(reg)
	if err != nil {
		t.Fatalf("NewUDP: %v", err)
	}
	mux := NewMuxConfig(tr, MuxConfig{Obs: reg})
	defer mux.Close()

	attacker, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("attacker socket: %v", err)
	}
	defer attacker.Close()

	// Well-formed frames with plausible session ids and the direction
	// each end expects: the checksum verifies, only the source is wrong.
	const injected = 8
	for i := 0; i < injected; i++ {
		data := EncodeFrame(Frame{Session: uint64(i%4 + 1), Dir: channel.SToR, Msg: "evil"})
		if _, err := attacker.WriteToUDPAddrPort(data, tr.Addr(ReceiverEnd).AddrPort()); err != nil {
			t.Fatalf("inject S→R: %v", err)
		}
		ack := EncodeFrame(Frame{Session: uint64(i%4 + 1), Dir: channel.RToS, Msg: "ack"})
		if _, err := attacker.WriteToUDPAddrPort(ack, tr.Addr(SenderEnd).AddrPort()); err != nil {
			t.Fatalf("inject R→S: %v", err)
		}
	}
	if got := waitCounter(t, reg, `wire_frames_dropped_total{cause="foreign"}`, 2*injected); got != 2*injected {
		t.Fatalf("foreign drops = %d, want %d", got, 2*injected)
	}
	snap := reg.Snapshot()
	for name, v := range snap.Counters {
		switch name {
		case `wire_frames_rx_total{dir="s_to_r"}`, `wire_frames_rx_total{dir="r_to_s"}`,
			`wire_frames_dropped_total{cause="unknown_session"}`,
			`wire_frames_dropped_total{cause="alien"}`,
			"wire_decode_errors_total":
			if v != 0 {
				t.Errorf("injected frames reached the mux: %s = %d", name, v)
			}
		}
	}
}

func TestUDPPeerRoundTrip(t *testing.T) {
	sEnd, rEnd := peerPair(t, nil, nil, udpRecvBuffer)

	if err := sEnd.Send(SenderEnd, []byte{1, 2, 3}); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case got := <-rEnd.Recv(ReceiverEnd):
		if len(got) != 3 || got[0] != 1 {
			t.Fatalf("S→R datagram wrong: %v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for S→R datagram")
	}
	if err := rEnd.Send(ReceiverEnd, []byte{9}); err != nil {
		t.Fatalf("reply: %v", err)
	}
	select {
	case got := <-sEnd.Recv(SenderEnd):
		if len(got) != 1 || got[0] != 9 {
			t.Fatalf("R→S datagram wrong: %v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for R→S datagram")
	}

	// The non-hosted end cannot send: the opposite process owns it.
	if err := sEnd.Send(ReceiverEnd, []byte{1}); err == nil {
		t.Error("send from non-hosted end succeeded")
	}
}

// TestUDPPeerForeignInjection proves source validation on the
// peer-addressed transport: only the configured peer's datagrams are
// delivered; a third socket's well-formed frames are counted and
// discarded — and before a remote is configured, everything is foreign.
func TestUDPPeerForeignInjection(t *testing.T) {
	reg := obs.NewRegistry()
	victim, err := NewUDPPeer(ReceiverEnd, "127.0.0.1:0", "", reg)
	if err != nil {
		t.Fatalf("victim peer: %v", err)
	}
	defer victim.Close()

	attacker, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("attacker socket: %v", err)
	}
	defer attacker.Close()
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("peer socket: %v", err)
	}
	defer peer.Close()

	target := victim.LocalAddr().AddrPort()
	frame := EncodeFrame(Frame{Session: 1, Dir: channel.SToR, Msg: "evil"})

	// Phase 1: no remote configured — even the future peer is foreign.
	if _, err := peer.WriteToUDPAddrPort(frame, target); err != nil {
		t.Fatalf("pre-config send: %v", err)
	}
	if got := waitCounter(t, reg, `wire_frames_dropped_total{cause="foreign"}`, 1); got != 1 {
		t.Fatalf("pre-config foreign drops = %d, want 1", got)
	}

	// Phase 2: remote configured — the peer delivers, the attacker does
	// not, including a batch blob (charged with its frame count).
	if err := victim.SetRemote(peer.LocalAddr().String()); err != nil {
		t.Fatalf("SetRemote: %v", err)
	}
	if _, err := peer.WriteToUDPAddrPort(frame, target); err != nil {
		t.Fatalf("peer send: %v", err)
	}
	select {
	case got := <-victim.Recv(ReceiverEnd):
		if len(got) != len(frame) {
			t.Fatalf("peer datagram mangled: %d bytes", len(got))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for legitimate peer datagram")
	}
	batch := AppendBatch(nil, [][]byte{frame, frame, frame})
	if _, err := attacker.WriteToUDPAddrPort(frame, target); err != nil {
		t.Fatalf("attacker send: %v", err)
	}
	if _, err := attacker.WriteToUDPAddrPort(batch, target); err != nil {
		t.Fatalf("attacker batch send: %v", err)
	}
	if got := waitCounter(t, reg, `wire_frames_dropped_total{cause="foreign"}`, 5); got != 5 {
		t.Fatalf("foreign drops = %d frames, want 5 (1 pre-config + 1 bare + 3-frame batch)", got)
	}
	select {
	case got := <-victim.Recv(ReceiverEnd):
		t.Fatalf("attacker datagram delivered: %v", got)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestUDPOversizedFrameDoesNotFailBurst pins the oversize regression: a
// single frame past the 65,507-byte UDP limit is dropped and counted
// while the rest of the burst goes out — the kernel error no longer
// aborts the remaining frames. One implementation, reached two ways: a
// bare peer pair and the loopback transport that wraps one.
func TestUDPOversizedFrameDoesNotFailBurst(t *testing.T) {
	type batchTransport interface {
		Transport
		BatchSender
	}
	big := make([]byte, udpMaxDatagram+1)
	for _, tc := range []struct {
		name string
		link func(t *testing.T, reg *obs.Registry) (tx batchTransport, rx <-chan []byte)
	}{
		{"loopback", func(t *testing.T, reg *obs.Registry) (batchTransport, <-chan []byte) {
			tr, err := NewUDP(reg)
			if err != nil {
				t.Fatalf("NewUDP: %v", err)
			}
			t.Cleanup(func() { tr.Close() })
			return tr, tr.Recv(ReceiverEnd)
		}},
		{"peer", func(t *testing.T, reg *obs.Registry) (batchTransport, <-chan []byte) {
			sEnd, rEnd := peerPair(t, reg, nil, udpRecvBuffer)
			return sEnd, rEnd.Recv(ReceiverEnd)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			tx, rx := tc.link(t, reg)
			if err := tx.SendBatch(SenderEnd, [][]byte{{1}, big, {2}}); err != nil {
				t.Fatalf("SendBatch with oversized frame errored: %v", err)
			}
			for want := byte(1); want <= 2; want++ {
				select {
				case got := <-rx:
					if len(got) != 1 || got[0] != want {
						t.Fatalf("burst survivor wrong: %v (want [%d])", got, want)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("timeout: frame %d lost with the oversized one", want)
				}
			}
			if err := tx.Send(SenderEnd, big); err != nil {
				t.Fatalf("Send oversized frame errored: %v", err)
			}
			if got := reg.Snapshot().Counters[`wire_frames_dropped_total{cause="oversize"}`]; got != 2 {
				t.Errorf("oversize drops = %d, want 2", got)
			}
		})
	}
}

// TestUDPPeerSendCloseRace hammers Send/SendBatch from several
// goroutines while Close runs (run with -race): sends may fail with
// ErrClosed but must never panic or return a non-close error.
func TestUDPPeerSendCloseRace(t *testing.T) {
	sEnd, _ := peerPair(t, nil, nil, udpRecvBuffer)

	frame := EncodeFrame(Frame{Session: 1, Dir: channel.SToR, Msg: "d"})
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 500; i++ {
				var err error
				if g%2 == 0 {
					err = sEnd.Send(SenderEnd, frame)
				} else {
					err = sEnd.SendBatch(SenderEnd, [][]byte{frame, frame})
				}
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("send during close: %v", err)
					return
				}
			}
		}(g)
	}
	close(start)
	time.Sleep(time.Millisecond)
	if err := sEnd.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	wg.Wait()
	if err := sEnd.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := sEnd.Send(SenderEnd, frame); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after Close = %v, want ErrClosed", err)
	}
}

// TestUDPPeerHalfSessions is the distributed data path end-to-end in
// one process: two muxes, each over its own peer-addressed socket, run
// the sender and receiver halves of the same session fleet — exactly
// what a client node and a server node do across machines. Every tape
// must arrive intact with zero safety violations, and a third socket
// injecting mid-run must never surface in either mux.
func TestUDPPeerHalfSessions(t *testing.T) {
	const n, m, items = 4, 8, 5
	regS, regR := obs.NewRegistry(), obs.NewRegistry()
	sEnd, rEnd := peerPair(t, regS, regR, udpRecvBuffer)

	half := func(h End) []SessionConfig {
		cfgs := make([]SessionConfig, n)
		for i := range cfgs {
			x := make(seq.Seq, items)
			for j := range x {
				x[j] = seq.Item((i + j) % m)
			}
			s, r, err := registry.Pair("alpha", registry.Params{M: m}, x)
			if err != nil {
				t.Fatalf("Pair: %v", err)
			}
			cfgs[i] = SessionConfig{
				ID: uint64(i + 1), Sender: s, Receiver: r, Input: x,
				Tick: 500 * time.Microsecond, Deadline: 30 * time.Second,
				Half: h,
			}
		}
		return cfgs
	}

	attacker, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("attacker socket: %v", err)
	}
	defer attacker.Close()
	stop := make(chan struct{})
	var injectWG sync.WaitGroup
	injectWG.Add(1)
	go func() {
		defer injectWG.Done()
		// Inject plausible frames at both nodes for the whole run: valid
		// session ids, valid direction, in-alphabet-shaped payloads.
		target := rEnd.LocalAddr().AddrPort()
		back := sEnd.LocalAddr().AddrPort()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f := EncodeFrame(Frame{Session: uint64(i%n + 1), Dir: channel.SToR, Msg: "x9"})
			attacker.WriteToUDPAddrPort(f, target)
			a := EncodeFrame(Frame{Session: uint64(i%n + 1), Dir: channel.RToS, Msg: "a0"})
			attacker.WriteToUDPAddrPort(a, back)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var sReports, rReports []Report
	var sErr, rErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rReports, rErr = Serve(ctx, ServeConfig{Transport: rEnd, Sessions: half(ReceiverEnd), Obs: regR})
	}()
	go func() {
		defer wg.Done()
		sReports, sErr = Serve(ctx, ServeConfig{Transport: sEnd, Sessions: half(SenderEnd), Obs: regS})
	}()
	wg.Wait()
	close(stop)
	injectWG.Wait()
	if sErr != nil || rErr != nil {
		t.Fatalf("Serve: sender %v, receiver %v", sErr, rErr)
	}

	for i, rep := range rReports {
		if rep.SafetyViolation != nil {
			t.Errorf("receiver half %d: safety violation: %v", rep.ID, rep.SafetyViolation)
		}
		if !rep.Complete {
			t.Errorf("receiver half %d: incomplete: %d/%d items", rep.ID, len(rep.Output), len(rep.Input))
		}
		if !rep.Output.Equal(rReports[i].Input) {
			t.Errorf("receiver half %d: output %s != input %s", rep.ID, rep.Output, rep.Input)
		}
	}
	for _, rep := range sReports {
		if !rep.Complete {
			t.Errorf("sender half %d: not quiescent at shutdown", rep.ID)
		}
	}
	// The attacker was live the whole run: both nodes must have counted
	// foreign datagrams, and none may have surfaced as decoded traffic
	// (every decode error or alien frame would be an injection leak —
	// the legitimate peer's traffic is checksummed and same-alphabet).
	for name, reg := range map[string]*obs.Registry{"sender": regS, "receiver": regR} {
		snap := reg.Snapshot()
		if snap.Counters[`wire_frames_dropped_total{cause="foreign"}`] == 0 {
			t.Errorf("%s node: injection ran but foreign counter is 0", name)
		}
		for _, c := range []string{
			"wire_decode_errors_total",
			`wire_frames_dropped_total{cause="alien"}`,
		} {
			if v := snap.Counters[c]; v != 0 {
				t.Errorf("%s node: %s = %d, want 0 (injected frames leaked past source validation)", name, c, v)
			}
		}
	}
	fmt.Println("half-session fleet complete over peer-addressed UDP with live injection")
}

// TestUDPPeerInboundLazy: a peer's inbound channel exists only for a
// consumer with no mux. Under a mux datagrams flow and none is made; with
// no mux a datagram that lands before any Recv makes it and Recv then
// yields the datagram; after Close, Recv returns a closed channel whether
// or not one was made.
func TestUDPPeerInboundLazy(t *testing.T) {
	made := func(p *UDPPeer) bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.inbound != nil
	}
	waitMade := func(t *testing.T, p *UDPPeer) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !made(p); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the reader made no inbound channel for a mux-less datagram")
			}
		}
	}
	t.Run("a mux makes none", func(t *testing.T) {
		reg := obs.NewRegistry()
		tr, err := NewUDP(reg)
		if err != nil {
			t.Fatalf("NewUDP: %v", err)
		}
		mux := NewMuxConfig(tr, MuxConfig{Obs: reg})
		defer mux.Close()
		frame := EncodeFrame(Frame{Session: 1, Dir: channel.SToR, Msg: "d:0"})
		if err := tr.SendBatch(SenderEnd, [][]byte{frame}); err != nil {
			t.Fatalf("SendBatch: %v", err)
		}
		if got := waitCounter(t, reg, `wire_frames_dropped_total{cause="unknown_session"}`, 1); got != 1 {
			t.Fatalf("the mux saw %d frames, want 1", got)
		}
		for _, p := range tr.peers {
			if made(p) {
				t.Errorf("%s peer made an inbound channel under a mux", p.host)
			}
		}
	})
	t.Run("a datagram before Recv", func(t *testing.T) {
		sEnd, rEnd := peerPair(t, nil, nil, udpRecvBuffer)
		if err := sEnd.Send(SenderEnd, []byte{7}); err != nil {
			t.Fatalf("send: %v", err)
		}
		waitMade(t, rEnd)
		select {
		case got := <-rEnd.Recv(ReceiverEnd):
			if len(got) != 1 || got[0] != 7 {
				t.Fatalf("datagram wrong: %v", got)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timeout waiting for the datagram")
		}
		if made(sEnd) {
			t.Error("a peer that neither received nor was asked made an inbound channel")
		}
	})
	t.Run("Recv after Close", func(t *testing.T) {
		sEnd, rEnd := peerPair(t, nil, nil, udpRecvBuffer)
		if err := sEnd.Send(SenderEnd, []byte{7}); err != nil {
			t.Fatalf("send: %v", err)
		}
		waitMade(t, rEnd)
		sEnd.Close()
		rEnd.Close()
		chans := map[string]<-chan []byte{
			"never made": sEnd.Recv(SenderEnd),
			"made":       rEnd.Recv(ReceiverEnd),
			"non-hosted": sEnd.Recv(ReceiverEnd),
		}
		for name, ch := range chans {
			for open := true; open; {
				select {
				case _, open = <-ch:
				case <-time.After(5 * time.Second):
					t.Fatalf("%s: Recv after Close is not closed", name)
				}
			}
		}
	})
}
