package wire

import (
	"net"

	"seqtx/internal/obs"
)

// UDP is the loopback datagram transport: a sender-hosting and a
// receiver-hosting UDPPeer on 127.0.0.1, pointed at each other. Loopback
// is just two peers that happen to share a process, so everything a
// datagram link does — send, batch packing, source validation, oversize
// and backpressure accounting — lives in UDPPeer; this type only picks
// the peer by End. UDP already provides the unreliable channel of the
// paper — the kernel may drop and reorder datagrams — and the impairment
// layer can make it arbitrarily worse.
type UDP struct {
	peers [2]*UDPPeer // indexed End-1
}

var _ Transport = (*UDP)(nil)
var _ BatchSender = (*UDP)(nil)

// NewUDP returns a UDP loopback transport on two kernel-assigned ports.
// reg (which may be nil) receives the drop counters.
func NewUDP(reg *obs.Registry) (*UDP, error) {
	s, err := NewUDPPeer(SenderEnd, "127.0.0.1:0", "", reg)
	if err != nil {
		return nil, err
	}
	r, err := NewUDPPeer(ReceiverEnd, "127.0.0.1:0", s.LocalAddr().String(), reg)
	if err != nil {
		s.Close()
		return nil, err
	}
	t := &UDP{peers: [2]*UDPPeer{s, r}}
	if err := s.SetRemote(r.LocalAddr().String()); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// Name implements Transport.
func (t *UDP) Name() string { return "udp" }

// Addr returns the local address of the given end's socket.
func (t *UDP) Addr(e End) *net.UDPAddr { return t.peers[e-1].LocalAddr() }

// Send implements Transport: one datagram from the given end's peer.
func (t *UDP) Send(from End, frame []byte) error { return t.peers[from-1].Send(from, frame) }

// SendBatch implements BatchSender through the given end's peer.
func (t *UDP) SendBatch(from End, frames [][]byte) error {
	return t.peers[from-1].SendBatch(from, frames)
}

// pushTo implements pusher through both peers.
func (t *UDP) pushTo(m *Mux) bool { return t.peers[0].pushTo(m) && t.peers[1].pushTo(m) }

// Recv implements Transport: the datagrams the given end's peer accepted.
func (t *UDP) Recv(at End) <-chan []byte { return t.peers[at-1].Recv(at) }

// Close implements Transport: closes both peers, which closes both Recv
// channels.
func (t *UDP) Close() error {
	e1 := t.peers[0].Close()
	e2 := t.peers[1].Close()
	if e1 != nil {
		return e1
	}
	return e2
}
