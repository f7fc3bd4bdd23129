package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"seqtx/internal/faults"
	"seqtx/internal/obs"
	"seqtx/internal/protocol"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
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

// runCellNode serves one assignment end to end: bind → ready → start →
// run → report. Node-level failures are reported to the master (in the
// ready or report envelope) AND returned, so both sides see them.
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

	peer, err := wire.NewUDPPeer(host, net.JoinHostPort(cfg.DataHost, "0"), "", reg)
	if err != nil {
		return fail("bind", err)
	}
	defer peer.Close()

	// The transport the sessions see: the raw peer, or the peer behind
	// the cell's impairment preset (the peer reference stays in hand for
	// SetRemote/LocalAddr, which the wrapper hides).
	var tr wire.Transport = peer
	if asgn.Impair != "" && asgn.Impair != "none" {
		opts, err := wire.ImpairSpec(asgn.Impair, asgn.Seed)
		if err != nil {
			return fail("impair", err)
		}
		if tr, err = wire.NewImpairment(peer, opts, reg); err != nil {
			return fail("impair", err)
		}
	}
	chaosOn, chaosPts, chaosPolicy, err := nodeChaos(asgn, cfg.Role)
	if err != nil {
		return fail("chaos", err)
	}
	cfgs, err := buildHalves(asgn, host)
	if err != nil {
		return fail("sessions", err)
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

	start := time.Now()
	var rep NodeReport
	var runErr error
	switch {
	case chaosOn:
		// Chaos cells run every session under crash-restart supervision,
		// BOTH halves: the node with the preset's crash points injects
		// them, and the peer node still needs the supervised audit — a
		// restarted remote process legitimately replays or rewrites, which
		// the strict prefix audit would misread as a violation. Rate
		// pacing does not compose with supervision and is ignored.
		if cfg.Role == RoleClient && asgn.Rate > 0 {
			logf("node %s: cell %v: chaos cell ignores rate pacing", cfg.Name, asgn.Cell)
		}
		var sreports []wire.SupervisedReport
		sreports, runErr = wire.ServeSupervised(ctx, wire.ChaosServeConfig{
			ServeConfig: wire.ServeConfig{
				Transport: tr, Sessions: cfgs, Obs: reg,
			},
			Chaos: wire.ChaosConfig{Crashes: chaosPts, Policy: chaosPolicy, Seed: asgn.Seed},
			Rebuild: func(i int) (protocol.Sender, protocol.Receiver, error) {
				return registry.Pair(asgn.Proto, asgnParams(asgn), cfgs[i].Input)
			},
		})
		rep = summarizeSupervisedNode(cfg, sreports, reg, time.Since(start))
	case cfg.Role == RoleClient && asgn.Rate > 0:
		var reports []wire.Report
		reports, runErr = runPaced(ctx, tr, cfgs, reg, asgn.Rate)
		rep = summarizeNode(cfg, reports, reg, time.Since(start))
	default:
		var reports []wire.Report
		reports, runErr = wire.Serve(ctx, wire.ServeConfig{
			Transport: tr, Sessions: cfgs, Obs: reg,
		})
		rep = summarizeNode(cfg, reports, reg, time.Since(start))
	}
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

// buildHalves derives this node's session configs from the assignment.
// Both ends of a pair call this with the same assignment (modulo Rate
// and Impair) and different hosts, so session id i's input tape X is
// derived identically on both machines — the receiver half needs X for
// the prefix audit, and shipping tapes through the control plane would
// couple its size to the data plane's.
func buildHalves(asgn Assignment, host wire.End) ([]wire.SessionConfig, error) {
	if asgn.Sessions <= 0 {
		return nil, fmt.Errorf("non-positive session count %d", asgn.Sessions)
	}
	params := asgnParams(asgn)
	tick := time.Duration(asgn.TickNS)
	deadline := time.Duration(asgn.DeadlineNS)
	src := rand.NewSource(0)
	rng := rand.New(src)
	cfgs := make([]wire.SessionConfig, asgn.Sessions)
	for j := range cfgs {
		id := asgn.FirstID + uint64(j)
		sessSeed := asgn.Seed + int64(id)
		src.Seed(sessSeed)
		x, err := seq.RandomRepetitionFree(rng, asgn.M, asgn.Items)
		if err != nil {
			return nil, err
		}
		s, r, err := registry.Pair(asgn.Proto, params, x)
		if err != nil {
			return nil, err
		}
		cfgs[j] = wire.SessionConfig{
			ID: id, Sender: s, Receiver: r, Input: x,
			Tick: tick, Deadline: deadline, Seed: sessSeed,
			Half: host,
		}
	}
	return cfgs, nil
}

// asgnParams maps an assignment's protocol parameters to the registry's.
func asgnParams(asgn Assignment) registry.Params {
	return registry.Params{
		M: asgn.M, Timeout: asgn.Timeout, Window: asgn.Window,
		Seed: asgn.Seed, Cap: asgn.Cap,
	}
}

// nodeChaos resolves an assignment's chaos preset for this node: whether
// supervision is on at all, and which of the preset's crash points this
// node injects — only those targeting its own half, since the other
// half's process lives on the peer machine.
func nodeChaos(asgn Assignment, role string) (on bool, pts []faults.CrashPoint, policy wire.RestartPolicy, err error) {
	policy, err = wire.ParseRestartPolicy(asgn.RestartPolicy)
	if err != nil {
		return false, nil, 0, err
	}
	if asgn.Chaos == "" || asgn.Chaos == "none" {
		return false, nil, policy, nil
	}
	spec, err := faults.PresetSpec(asgn.Chaos)
	if err != nil {
		return false, nil, 0, err
	}
	who := faults.Sender
	if role == RoleServer {
		who = faults.Receiver
	}
	for _, p := range spec.Crashes {
		if p.Who == who {
			pts = append(pts, p)
		}
	}
	return true, pts, policy, nil
}

// runPaced is the client-side rate-paced variant of wire.Serve: session
// starts are spaced 1/rate apart, so a cell ramps load instead of
// slamming every sender on at once.
func runPaced(ctx context.Context, tr wire.Transport, cfgs []wire.SessionConfig,
	reg *obs.Registry, rate float64) ([]wire.Report, error) {

	mux := wire.NewMux(tr, reg)
	sessions := make([]*wire.Session, len(cfgs))
	for i, sc := range cfgs {
		s, err := mux.NewSession(sc)
		if err != nil {
			mux.Close()
			return nil, err
		}
		sessions[i] = s
	}
	interval := time.Duration(float64(time.Second) / rate)
	reports := make([]wire.Report, len(sessions))
	var wg sync.WaitGroup
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
pacing:
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *wire.Session) {
			defer wg.Done()
			reports[i] = s.Run(ctx)
		}(i, s)
		if i == len(sessions)-1 {
			break
		}
		select {
		case <-ticker.C:
		case <-ctx.Done():
			// Start the rest unpaced so every session still runs (and
			// reports) before shutdown.
			for j := i + 1; j < len(sessions); j++ {
				wg.Add(1)
				go func(j int, s *wire.Session) {
					defer wg.Done()
					reports[j] = s.Run(ctx)
				}(j, sessions[j])
			}
			break pacing
		}
	}
	wg.Wait()
	if err := mux.Close(); err != nil {
		return reports, fmt.Errorf("cluster: closing transport: %w", err)
	}
	return reports, nil
}

// summarizeNode folds the node's session reports and wire counters into
// its NodeReport for the cell.
func summarizeNode(cfg NodeConfig, reports []wire.Report,
	reg *obs.Registry, elapsed time.Duration) NodeReport {

	rep := NodeReport{
		Node: cfg.Name, Role: cfg.Role,
		Sessions:       len(reports),
		ElapsedSeconds: elapsed.Seconds(),
	}
	for _, r := range reports {
		if r.Complete {
			rep.Completed++
			if cfg.Role == RoleClient && r.Elapsed > 0 {
				rep.LatenciesMS = append(rep.LatenciesMS,
					float64(r.Elapsed)/float64(time.Millisecond))
			}
		}
		if r.SafetyViolation != nil {
			rep.Violations++
		}
		if cfg.Role == RoleServer {
			rep.ItemsDelivered += int64(len(r.Output))
		}
	}
	foldWireCounters(&rep, reg)
	return rep
}

// summarizeSupervisedNode is the chaos-cell counterpart: a session's
// safety verdict is its post-stabilization bad-write count (bad writes
// inside a recovery window are stabilization debt, not violations), and
// the incarnation/watchdog totals ride along for the cell report.
func summarizeSupervisedNode(cfg NodeConfig, reports []wire.SupervisedReport,
	reg *obs.Registry, elapsed time.Duration) NodeReport {

	rep := NodeReport{
		Node: cfg.Name, Role: cfg.Role,
		Sessions:       len(reports),
		ElapsedSeconds: elapsed.Seconds(),
	}
	for _, r := range reports {
		if r.Complete {
			rep.Completed++
			if cfg.Role == RoleClient && r.Elapsed > 0 {
				rep.LatenciesMS = append(rep.LatenciesMS,
					float64(r.Elapsed)/float64(time.Millisecond))
			}
		}
		if r.PostStabViolations > 0 {
			rep.Violations++
		}
		rep.Incarnations += len(r.Incarnations)
		rep.BadWrites += r.BadWrites
		rep.PostStabViolations += r.PostStabViolations
		rep.WatchdogEscalations += r.WatchdogEscalations
		if cfg.Role == RoleServer {
			rep.ItemsDelivered += int64(len(r.Output))
		}
	}
	foldWireCounters(&rep, reg)
	return rep
}

// foldWireCounters copies the cell registry's wire counters into the
// report.
func foldWireCounters(rep *NodeReport, reg *obs.Registry) {
	for name, v := range reg.Snapshot().Counters {
		switch {
		case strings.HasPrefix(name, "wire_frames_tx_total"):
			rep.FramesTx += v
		case strings.HasPrefix(name, "wire_frames_rx_total"):
			rep.FramesRx += v
		case name == `wire_frames_dropped_total{cause="foreign"}`:
			rep.ForeignDrops = v
		case name == `wire_frames_dropped_total{cause="backpressure"}`:
			rep.BackpressureDrops = v
		case name == `wire_frames_dropped_total{cause="oversize"}`:
			rep.OversizeDrops = v
		}
	}
}
