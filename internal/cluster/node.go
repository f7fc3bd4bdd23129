package cluster

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"seqtx/internal/cliutil"
	"seqtx/internal/fleet"
	"seqtx/internal/obs"
	"seqtx/internal/wire"
)

// NodeConfig configures one fleet member.
type NodeConfig struct {
	// Master is the coordinator's control-plane address.
	Master string
	// Role is RoleServer (receiver halves) or RoleClient (sender halves).
	Role string
	// Name identifies the node in reports and pairs the fleet
	// deterministically (the master sorts each role by name).
	Name string
	// DataHost is the local host/IP the data-plane sockets bind on
	// ("" = 127.0.0.1). On a real multi-machine fleet this is the
	// interface the peer can reach.
	DataHost string
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// RunNode connects to the master and serves cells until shutdown: for
// each assignment it binds a fresh peer-addressed UDP socket, reports
// the bound address, waits for the peer's address, runs its halves of
// the cell's sessions, and reports the outcome. A fresh socket per cell
// keeps cells isolated — a late datagram from the previous cell arrives
// at a dead port instead of a live mux (and would be rejected as
// foreign even if the kernel reused the port, since the peer binds anew
// too).
func RunNode(ctx context.Context, cfg NodeConfig) error {
	if cfg.Role != RoleServer && cfg.Role != RoleClient {
		return fmt.Errorf("cluster: node role must be %q or %q, got %q", RoleServer, RoleClient, cfg.Role)
	}
	if cfg.Name == "" {
		return fmt.Errorf("cluster: node needs a name")
	}
	if cfg.DataHost == "" {
		cfg.DataHost = "127.0.0.1"
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", cfg.Master)
	if err != nil {
		return fmt.Errorf("cluster: node %q dial master: %w", cfg.Name, err)
	}
	c := newConn(nc)
	defer c.close()
	if dl, ok := ctx.Deadline(); ok {
		nc.SetDeadline(dl)
	}
	if err := c.send(envelope{Type: TypeHello, Hello: &Hello{Role: cfg.Role, Name: cfg.Name}}); err != nil {
		return err
	}
	logf("node %s (%s): connected to master %s", cfg.Name, cfg.Role, cfg.Master)

	for {
		env, err := c.recv("")
		if err != nil {
			return fmt.Errorf("cluster: node %q: %w", cfg.Name, err)
		}
		switch env.Type {
		case TypePrepare:
			if env.Prepare == nil {
				return fmt.Errorf("cluster: node %q: empty prepare", cfg.Name)
			}
			if err := runCellNode(ctx, cfg, c, *env.Prepare, logf); err != nil {
				return err
			}
		case TypeShutdown:
			logf("node %s: shutdown", cfg.Name)
			return nil
		default:
			return fmt.Errorf("cluster: node %q: unexpected %q outside a cell", cfg.Name, env.Type)
		}
	}
}

// NodeMain is the -master mode of stpserve and stpload: it joins the
// cluster as a node of the given role, serves assignments until the
// master shuts the sweep down, and returns the process exit code. It
// writes to the stdout and stderr its command was handed.
func NodeMain(prog, role, master, name, dataHost string, verbose bool, stdout, stderr io.Writer) int {
	if err := cliutil.HostPort("master", master); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", prog, err)
		return 2
	}
	if name == "" {
		prefix := "cli"
		if role == RoleServer {
			prefix = "srv"
		}
		name = fmt.Sprintf("%s-%d", prefix, os.Getpid())
	}
	cfg := NodeConfig{Master: master, Role: role, Name: name, DataHost: dataHost}
	if verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, prog+": "+format+"\n", args...)
		}
	}
	if err := RunNode(context.Background(), cfg); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", prog, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s: node %s done\n", prog, name)
	return 0
}

// runCellNode serves one assignment end to end: build → bind → ready →
// start → run → report. Node-level failures are reported to the master
// (in the ready or report envelope) AND returned, so both sides see them.
func runCellNode(ctx context.Context, cfg NodeConfig, c *conn, asgn Assignment, logf func(string, ...any)) error {
	host := wire.SenderEnd
	if cfg.Role == RoleServer {
		host = wire.ReceiverEnd
	}
	reg := obs.NewRegistry()

	fail := func(stage string, err error) error {
		werr := fmt.Errorf("cluster: node %q %s: %w", cfg.Name, stage, err)
		c.send(envelope{Type: TypeReady, Ready: &Ready{Err: werr.Error()}})
		return werr
	}

	// Sessions before sockets: a bad assignment fails here, holding
	// nothing. Both ends of a pair derive session id i's tape from the
	// same cell seed (fleet.Spec.Build).
	if err := asgn.Validate(); err != nil {
		return fail("assignment", err)
	}
	cfgs, err := asgn.Build(host, asgn.Seed)
	if err != nil {
		return fail("sessions", err)
	}
	peer, err := wire.NewUDPPeer(host, net.JoinHostPort(cfg.DataHost, "0"), "", reg)
	if err != nil {
		return fail("bind", err)
	}
	defer peer.Close()

	// The transport the sessions see: the raw peer, or the peer behind
	// the cell's impairment (the peer reference stays in hand for
	// SetRemote/LocalAddr, which the wrapper hides).
	var tr wire.Transport = peer
	if asgn.Impair != "" && asgn.Impair != "none" {
		if tr, err = asgn.Impaired(peer, reg); err != nil {
			return fail("impair", err)
		}
	}

	if err := c.send(envelope{Type: TypeReady, Ready: &Ready{DataAddr: peer.LocalAddr().String()}}); err != nil {
		return err
	}
	env, err := c.recv(TypeStart)
	if err != nil {
		return fmt.Errorf("cluster: node %q: %w", cfg.Name, err)
	}
	if env.Start == nil || env.Start.PeerAddr == "" {
		return fmt.Errorf("cluster: node %q: empty start", cfg.Name)
	}
	if err := peer.SetRemote(env.Start.PeerAddr); err != nil {
		rep := NodeReport{Node: cfg.Name, Role: cfg.Role, Err: err.Error()}
		c.send(envelope{Type: TypeReport, Report: &rep})
		return fmt.Errorf("cluster: node %q: %w", cfg.Name, err)
	}
	logf("node %s: cell %v: %d sessions, data %s ↔ %s",
		cfg.Name, asgn.Cell, asgn.Sessions, peer.LocalAddr(), env.Start.PeerAddr)

	// A chaos cell supervises every session on BOTH halves: the node with
	// the preset's crash points injects them, and the peer node still
	// needs the stabilization audit — a restarted remote process
	// legitimately replays or rewrites, which the strict prefix audit
	// would misread as a violation. A client spaces its session starts
	// 1/rate apart, so a cell ramps load instead of slamming every sender
	// on at once.
	serve := wire.ServeConfig{Transport: tr, Sessions: cfgs, Obs: reg}
	if cfg.Role == RoleClient && asgn.Rate > 0 {
		serve.StartEvery = time.Duration(float64(time.Second) / asgn.Rate)
	}
	start := time.Now()
	var tally fleet.Tally
	out, runErr := asgn.Serve(ctx, serve, asgn.Seed, &tally)
	rep := nodeReport(cfg, out, &tally, reg, time.Since(start))
	if runErr != nil {
		rep.Err = runErr.Error()
	}
	if err := c.send(envelope{Type: TypeReport, Report: &rep}); err != nil {
		return err
	}
	logf("node %s: cell %v: complete=%d/%d violations=%d foreign=%d",
		cfg.Name, asgn.Cell, rep.Completed, rep.Sessions, rep.Violations, rep.ForeignDrops)
	return runErr
}

// nodeReport turns the cell's tally and wire counters into the node's
// report. A session's safety verdict is the strict prefix audit, or in a
// chaos cell its post-stabilization bad-write count (bad writes inside a
// recovery window are stabilization debt, not violations). Latencies
// come from clients (a sender half's life spans first send to final
// ack), deliveries from servers (the receiver half owns the tape).
func nodeReport(cfg NodeConfig, out fleet.Reports, t *fleet.Tally,
	reg *obs.Registry, elapsed time.Duration) NodeReport {

	rep := NodeReport{
		Node: cfg.Name, Role: cfg.Role,
		Sessions: t.Sessions, Completed: t.Completed,
		Violations:     t.Violations + t.Unstable,
		ElapsedSeconds: elapsed.Seconds(),
		Incarnations:   t.Incarnations, BadWrites: t.BadWrites,
		PostStabViolations:  t.PostStabViolations,
		WatchdogEscalations: t.WatchdogEscalations,
	}
	if cfg.Role == RoleServer {
		rep.ItemsDelivered = t.ItemsDelivered
	} else {
		for _, d := range out.Latencies() {
			rep.LatenciesMS = append(rep.LatenciesMS, float64(d)/float64(time.Millisecond))
		}
	}
	var drops map[string]int64
	rep.FramesTx, rep.FramesRx, drops = fleet.WireCounters(reg.Snapshot().Counters)
	rep.ForeignDrops = drops["foreign"]
	rep.BackpressureDrops = drops["backpressure"]
	rep.OversizeDrops = drops["oversize"]
	return rep
}
