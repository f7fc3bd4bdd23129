// Package cluster is the distributed runtime for the wire data plane: a
// coordinator (the master) hands out per-cell session assignments to a
// fleet of nodes over a small line-JSON control protocol, the nodes run
// the sender and receiver halves of each session over peer-addressed UDP
// (wire.UDPPeer), and the master aggregates their reports into a bench
// document. It is the multi-process counterpart of wire.Serve: the same
// sessions, the same safety audit, but the two ends of every link live
// in different processes — typically on different machines — so nothing
// can lean on the loopback-era assumption that one struct owns both
// sockets.
//
// Control protocol (line-delimited JSON over one TCP connection per
// node, master-driven, strictly request/response from the node's view):
//
//	node → master   hello{role,name}           once, on connect
//	master → node   prepare{assignment}        per cell: bind your socket
//	node → master   ready{data_addr}           concrete host:port bound
//	master → node   start{peer_addr}           the opposite end's address
//	node → master   report{node_report}        when the cell finishes
//	master → node   shutdown{}                 sweep done, exit
//
// The two-phase prepare/start exchange exists because a node must bind
// before its address is known (kernel-assigned ports), and both ends'
// addresses must be exchanged before either can validate datagram
// sources: a UDPPeer rejects every datagram until its remote is set.
package cluster

import (
	"encoding/json"
	"fmt"
	"net"

	"seqtx/internal/fleet"
)

// Node roles.
const (
	RoleServer = "server" // runs receiver halves (the output-tape side)
	RoleClient = "client" // runs sender halves (the load-generating side)
)

// Message types carried in the envelope's Type field.
const (
	TypeHello    = "hello"
	TypePrepare  = "prepare"
	TypeReady    = "ready"
	TypeStart    = "start"
	TypeReport   = "report"
	TypeShutdown = "shutdown"
)

// Hello introduces a node to the master.
type Hello struct {
	Role string `json:"role"`
	Name string `json:"name"`
}

// Assignment is one node's share of one sweep cell: the fleet to run —
// session ids FirstID.., every tape and session seed drawn from
// Seed+int64(id) — and, by the node's role, as which half. The sender
// and receiver assignments of a pair differ only in Rate and Impair
// (client-side concerns); everything the session machines are built from
// is identical, which is what lets both processes derive the same input
// tape X independently. Impairing one end suffices: the impairment
// shapes both directions of that end's socket. Chaos is shared by both
// ends — each node applies only the crash points that target its own
// half — so one preset name describes the whole pair's process-fault
// schedule.
type Assignment struct {
	Cell CellKey `json:"cell"`

	fleet.Spec

	// Rate paces client-side session starts (sessions/sec; 0 = all at
	// once). Servers ignore it — receiver halves just wait for traffic.
	Rate float64 `json:"rate,omitempty"`
}

// Ready carries the concrete data-plane address a node bound for the
// cell (kernel-assigned port resolved), or the node's failure to bind.
type Ready struct {
	DataAddr string `json:"data_addr,omitempty"`
	Err      string `json:"err,omitempty"`
}

// Start points a node at its peer's bound data-plane address.
type Start struct {
	PeerAddr string `json:"peer_addr"`
}

// NodeReport is one node's outcome for one cell.
type NodeReport struct {
	Node string `json:"node"`
	Role string `json:"role"`

	Sessions   int `json:"sessions"`
	Completed  int `json:"completed"`
	Violations int `json:"violations"`

	// ItemsDelivered counts output-tape items (meaningful on servers:
	// the receiver half owns the tape).
	ItemsDelivered int64 `json:"items_delivered"`

	// LatenciesMS are per-completed-session elapsed times (meaningful on
	// clients: a sender half's life spans first send to final ack).
	LatenciesMS []float64 `json:"latencies_ms,omitempty"`

	// Wire counters for the cell (from the node's per-cell registry).
	FramesTx          int64 `json:"frames_tx"`
	FramesRx          int64 `json:"frames_rx"`
	ForeignDrops      int64 `json:"foreign_drops"`
	BackpressureDrops int64 `json:"backpressure_drops"`
	OversizeDrops     int64 `json:"oversize_drops"`

	ElapsedSeconds float64 `json:"elapsed_seconds"`

	// Chaos tallies, populated when the cell ran under crash-restart
	// supervision. Violations above then counts sessions with
	// post-stabilization bad writes (the supervised analogue of a strict
	// prefix violation); these fields keep the raw totals.
	Incarnations        int `json:"incarnations,omitempty"`
	BadWrites           int `json:"bad_writes,omitempty"`
	PostStabViolations  int `json:"post_stab_violations,omitempty"`
	WatchdogEscalations int `json:"watchdog_escalations,omitempty"`

	// Err reports a node-level failure (bind error, bad assignment);
	// session-level outcomes stay in the counts above.
	Err string `json:"err,omitempty"`
}

// envelope is the single wire message: Type plus exactly one payload.
type envelope struct {
	Type     string      `json:"type"`
	Hello    *Hello      `json:"hello,omitempty"`
	Prepare  *Assignment `json:"prepare,omitempty"`
	Ready    *Ready      `json:"ready,omitempty"`
	Start    *Start      `json:"start,omitempty"`
	Report   *NodeReport `json:"report,omitempty"`
	Shutdown bool        `json:"shutdown,omitempty"`
}

// conn wraps one control connection with its codecs. json.Encoder
// terminates every message with a newline, giving the line-JSON framing
// for free; json.Decoder streams them back out.
type conn struct {
	c   net.Conn
	enc *json.Encoder
	dec *json.Decoder
}

func newConn(c net.Conn) *conn {
	return &conn{c: c, enc: json.NewEncoder(c), dec: json.NewDecoder(c)}
}

func (c *conn) send(env envelope) error {
	if err := c.enc.Encode(env); err != nil {
		return fmt.Errorf("cluster: send %s: %w", env.Type, err)
	}
	return nil
}

// recv reads the next envelope and checks its type; wantType "" accepts
// anything (the node's dispatch loop).
func (c *conn) recv(wantType string) (envelope, error) {
	var env envelope
	if err := c.dec.Decode(&env); err != nil {
		return env, fmt.Errorf("cluster: recv: %w", err)
	}
	if wantType != "" && env.Type != wantType {
		return env, fmt.Errorf("cluster: recv: got %q, want %q", env.Type, wantType)
	}
	return env, nil
}

func (c *conn) close() error { return c.c.Close() }
