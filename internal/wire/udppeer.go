package wire

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"seqtx/internal/obs"
)

// UDPPeer is the datagram transport: ONE socket, bound to a
// configurable local address, speaking the batch-blob wire format with
// ONE configured remote peer — the other half of the link, typically in
// a different process on a different machine (the loopback UDP
// transport is two of these in one process). A plain Send puts one
// frame in one datagram; SendBatch packs an ordered burst into
// batch-framed datagrams, amortizing the syscall across every session
// sharing the link.
//
// The process hosting a UDPPeer hosts exactly one End (its sessions run
// as halves, SessionConfig.Half): Send from the hosted end writes
// datagrams to the peer; Recv at the hosted end yields datagrams that
// arrived *from* the peer. Source-address validation is mandatory on
// every datagram — the frame checksum proves integrity but never
// origin, so without it any host that learned the port could inject
// well-formed frames straight into the session mux. Foreign datagrams
// are counted (wire_frames_dropped_total{cause="foreign"}) and never
// copied toward the mux.
//
// Under a mux the reader pushes each accepted datagram from its read buffer
// to Mux.arrive and makes no channel; Recv serves a consumer with no mux,
// and the non-hosted end's stays empty until Close. Send from the
// non-hosted end is an error.
type UDPPeer struct {
	host  End
	conn  *net.UDPConn
	local netip.AddrPort
	// remote is the configured peer (atomic: SetRemote may land after
	// the read loop started, in the cluster's bind-then-exchange
	// handshake). nil means "not configured yet": every inbound datagram
	// is foreign and sends fail.
	remote atomic.Pointer[netip.AddrPort]

	ghost chan []byte         // the non-hosted end's Recv: empty, closed on Close
	mux   atomic.Pointer[Mux] // set by pushTo; then inbound is never made

	mu         sync.Mutex
	inbound    chan []byte // toward the hosted end; made by in()
	recvBuffer int         // inbound's capacity in blobs
	stopped    bool        // the reader has returned and closed inbound, if made

	dropped  *obs.Counter
	foreign  *obs.Counter
	oversize *obs.Counter

	closeOnce sync.Once
	closeErr  error
	done      chan struct{}
	wg        sync.WaitGroup
}

var _ Transport = (*UDPPeer)(nil)
var _ BatchSender = (*UDPPeer)(nil)

// udpMaxPayload caps one datagram's payload: comfortably under the
// 65,507-byte UDP limit and under blobCap, so batch scratch buffers stay
// pooled.
const udpMaxPayload = 60 * 1024

// udpMaxDatagram is the hard UDP payload ceiling (65,535 minus the IP
// and UDP headers): a single frame larger than this cannot go on the
// wire at all, so the send path drops and counts it instead of letting
// the kernel error the whole burst.
const udpMaxDatagram = 65507

// udpRecvBuffer is the default inbound blob buffer; blobs arriving
// while it is full are dropped (as UDP itself would under load).
const udpRecvBuffer = 4096

// sameSource reports whether a datagram's source address matches the
// expected peer. Ports must match exactly; addresses are compared
// unmapped, so an IPv4 peer seen through an IPv4-in-IPv6 socket still
// matches its configured IPv4 form.
func sameSource(got, want netip.AddrPort) bool {
	return got.Port() == want.Port() && got.Addr().Unmap() == want.Addr().Unmap()
}

// NewUDPPeer binds one end of a distributed link: host names the End
// this process runs, laddr the local UDP address to bind (port 0 asks
// the kernel), raddr the remote peer ("" defers to SetRemote — the
// cluster runtime binds first, exchanges concrete addresses through the
// coordinator, then points the peers at each other). reg (which may be
// nil) receives the drop counters.
func NewUDPPeer(host End, laddr, raddr string, reg *obs.Registry) (*UDPPeer, error) {
	return newUDPPeer(host, laddr, raddr, reg, udpRecvBuffer)
}

// newUDPPeer is NewUDPPeer with the inbound buffer sized in blobs.
func newUDPPeer(host End, laddr, raddr string, reg *obs.Registry, recvBuffer int) (*UDPPeer, error) {
	if host != SenderEnd && host != ReceiverEnd {
		return nil, fmt.Errorf("wire: udp peer: bad host end %d", int(host))
	}
	la, err := net.ResolveUDPAddr("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("wire: udp peer local addr: %w", err)
	}
	conn, err := net.ListenUDP("udp", la)
	if err != nil {
		return nil, fmt.Errorf("wire: udp peer socket: %w", err)
	}
	t := &UDPPeer{
		host:       host,
		conn:       conn,
		local:      conn.LocalAddr().(*net.UDPAddr).AddrPort(),
		recvBuffer: recvBuffer,
		ghost:      make(chan []byte),
		dropped:    reg.Counter(`wire_frames_dropped_total{cause="backpressure"}`),
		foreign:    reg.Counter(`wire_frames_dropped_total{cause="foreign"}`),
		oversize:   reg.Counter(`wire_frames_dropped_total{cause="oversize"}`),
		done:       make(chan struct{}),
	}
	if raddr != "" {
		if err := t.SetRemote(raddr); err != nil {
			conn.Close()
			return nil, err
		}
	}
	t.wg.Add(1)
	go t.read()
	return t, nil
}

// Name implements Transport.
func (t *UDPPeer) Name() string { return "udp-peer" }

// Host returns the End this process runs.
func (t *UDPPeer) Host() End { return t.host }

// LocalAddr returns the bound local address — the concrete host:port a
// node advertises to the coordinator so its peer can be pointed here.
func (t *UDPPeer) LocalAddr() *net.UDPAddr {
	return t.conn.LocalAddr().(*net.UDPAddr)
}

// SetRemote configures (or re-points) the peer address. Until a remote
// is set, every inbound datagram is foreign and every send fails.
func (t *UDPPeer) SetRemote(raddr string) error {
	ra, err := net.ResolveUDPAddr("udp", raddr)
	if err != nil {
		return fmt.Errorf("wire: udp peer remote addr: %w", err)
	}
	// Unmap IPv4-in-IPv6 (ResolveUDPAddr yields ::ffff:a.b.c.d for
	// dotted-quad input, which an IPv4-bound socket cannot write to).
	ap := ra.AddrPort()
	ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	t.remote.Store(&ap)
	return nil
}

// Send implements Transport: one datagram per frame toward the peer —
// a burst of one.
func (t *UDPPeer) Send(from End, frame []byte) error {
	return t.SendBatch(from, [][]byte{frame})
}

// SendBatch implements BatchSender: the burst is packed into as few
// batch-framed datagrams as fit, one syscall each. A lone frame bigger
// than udpMaxPayload goes out as a raw datagram; past the hard UDP
// ceiling the kernel would reject the write, and an unsendable frame is
// channel loss, not an error — it is dropped and counted and the rest
// of the burst keeps moving.
func (t *UDPPeer) SendBatch(from End, frames [][]byte) error {
	select {
	case <-t.done:
		return ErrClosed
	default:
	}
	if from != t.host {
		return fmt.Errorf("wire: udp peer hosts the %s end; cannot send from %s", t.host, from)
	}
	remote := t.remote.Load()
	if remote == nil {
		return fmt.Errorf("wire: udp peer: no remote configured")
	}
	for start := 0; start < len(frames); {
		n, size := batchFit(frames[start:], udpMaxPayload)
		var err error
		if n == 1 {
			if len(frames[start]) > udpMaxDatagram {
				t.oversize.Inc()
				start++
				continue
			}
			_, err = t.conn.WriteToUDPAddrPort(frames[start], *remote)
		} else {
			blob := AppendBatch(getBuf(size), frames[start:start+n])
			_, err = t.conn.WriteToUDPAddrPort(blob, *remote)
			putBuf(blob)
		}
		if err != nil {
			select {
			case <-t.done:
				return ErrClosed // send raced with Close; report the close
			default:
			}
			return fmt.Errorf("wire: udp peer send: %w", err)
		}
		start += n
	}
	return nil
}

// pushTo implements pusher: the reader hands each accepted datagram to m.
func (t *UDPPeer) pushTo(m *Mux) bool { t.mux.Store(m); return true }

// Recv implements Transport: the hosted end sees the peer's datagrams;
// the non-hosted end's channel stays empty and closes with the transport.
// After Close it returns a closed channel.
func (t *UDPPeer) Recv(at End) <-chan []byte {
	if at != t.host {
		return t.ghost
	}
	return t.in()
}

// in returns the hosted end's channel, making it on first mux-less use;
// once the reader has stopped, one never made is closedBlobs.
func (t *UDPPeer) in() chan []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.inbound == nil {
		if t.stopped {
			return closedBlobs
		}
		t.inbound = make(chan []byte, t.recvBuffer)
	}
	return t.inbound
}

// read pumps datagrams from the socket toward the hosted end until the
// socket closes. Every datagram's source must match the configured
// peer; mismatches (and anything arriving before a peer is configured)
// are counted as foreign and never reach the mux. With no mux attached an
// accepted datagram is copied into a pooled blob for Recv; backpressure
// drops there are charged with the blob's frame count.
func (t *UDPPeer) read() {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		if t.stopped = true; t.inbound != nil {
			close(t.inbound)
		}
	}()
	buf := make([]byte, 64*1024)
	for {
		n, from, err := t.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // socket closed (or fatally broken): stop pumping
		}
		remote := t.remote.Load()
		if remote == nil || !sameSource(from, *remote) {
			t.foreign.Add(int64(blobFrames(buf[:n])))
			continue
		}
		if m := t.mux.Load(); m != nil {
			m.arrive(t.host, buf[:n])
			continue
		}
		blob := append(getBuf(n), buf[:n]...)
		select {
		case t.in() <- blob:
		default:
			t.dropped.Add(int64(blobFrames(blob)))
			putBuf(blob)
		}
	}
}

// Close implements Transport: closes the socket, waits for the read
// loop to close the hosted Recv channel, and closes the ghost channel.
func (t *UDPPeer) Close() error {
	t.closeOnce.Do(func() {
		close(t.done)
		t.closeErr = t.conn.Close()
		t.wg.Wait()
		close(t.ghost)
	})
	return t.closeErr
}
