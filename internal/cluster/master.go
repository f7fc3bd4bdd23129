package cluster

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"
)

// MasterConfig configures the sweep coordinator.
type MasterConfig struct {
	// Listen is the control-plane TCP address (":0" for kernel-assigned;
	// Master.Addr reports the concrete one).
	Listen string
	// Servers and Clients size the fleet the master waits for. They must
	// be equal: client i pairs 1:1 with server i, because a UDPPeer
	// validates exactly one remote source.
	Servers int
	Clients int
	// Sweep is the evaluation grid.
	Sweep SweepConfig
	// AssembleTimeout bounds the wait for the fleet to connect and say
	// hello (0 = 30s).
	AssembleTimeout time.Duration
	// CellTimeout, when positive, bounds each cell's control-plane wait
	// per node: a node that fails to deliver its ready or report inside
	// the window fails only that cell — the master records the failure
	// in BenchCell.Err, drops the wedged node's pair from the fleet, and
	// continues the sweep with the survivors. Zero keeps the strict
	// behavior: any node failure aborts the whole sweep. Set it above
	// the session deadline, or healthy-but-slow cells will be culled.
	CellTimeout time.Duration
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Master coordinates a distributed sweep: it waits for the configured
// fleet to connect, then drives every cell through the two-phase
// prepare/start handshake and aggregates the nodes' reports.
type Master struct {
	cfg MasterConfig
	ln  net.Listener
	// steady is the conn deadline to restore after a timed cell (the
	// ctx deadline when Run has one, else zero = none).
	steady time.Time
}

// NewMaster validates the config and binds the control listener (so the
// concrete address is known before any node starts).
func NewMaster(cfg MasterConfig) (*Master, error) {
	if cfg.Servers < 1 || cfg.Clients < 1 {
		return nil, fmt.Errorf("cluster: master needs at least 1 server and 1 client, got %d/%d", cfg.Servers, cfg.Clients)
	}
	if cfg.Servers != cfg.Clients {
		return nil, fmt.Errorf("cluster: master needs servers == clients (1:1 pairing), got %d servers, %d clients", cfg.Servers, cfg.Clients)
	}
	if err := cfg.Sweep.normalize(); err != nil {
		return nil, err
	}
	if cfg.AssembleTimeout <= 0 {
		cfg.AssembleTimeout = 30 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("cluster: master listen: %w", err)
	}
	return &Master{cfg: cfg, ln: ln}, nil
}

// Addr returns the bound control-plane address.
func (m *Master) Addr() string { return m.ln.Addr().String() }

// Close releases the control listener (Run closes it itself on return).
func (m *Master) Close() error { return m.ln.Close() }

func (m *Master) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// node is a connected fleet member.
type node struct {
	*conn
	hello Hello
}

// Run assembles the fleet, drives the sweep, shuts the nodes down, and
// returns the aggregated bench document. The error covers control-plane
// failures; per-session outcomes (violations included) live in the doc.
func (m *Master) Run(ctx context.Context) (*BenchDoc, error) {
	defer m.ln.Close()
	servers, clients, err := m.assemble(ctx)
	if err != nil {
		return nil, err
	}
	all := append(append([]*node{}, servers...), clients...)
	defer func() {
		for _, n := range all {
			n.send(envelope{Type: TypeShutdown, Shutdown: true})
			n.close()
		}
	}()
	if d, ok := ctx.Deadline(); ok {
		m.steady = d
		for _, n := range all {
			n.c.SetDeadline(d)
		}
	}

	doc := &BenchDoc{
		Proto:         m.cfg.Sweep.Proto,
		M:             m.cfg.Sweep.M,
		Items:         m.cfg.Sweep.Items,
		Servers:       len(servers),
		Clients:       len(clients),
		Seed:          m.cfg.Sweep.Seed,
		TickMS:        float64(m.cfg.Sweep.Tick) / float64(time.Millisecond),
		Deadline:      m.cfg.Sweep.Deadline.String(),
		RestartPolicy: m.cfg.Sweep.RestartPolicy,
	}
	for ci, key := range m.cfg.Sweep.cells() {
		if len(servers) == 0 {
			return doc, fmt.Errorf("cluster: no live node pairs remain after %d cells (%d failed)",
				len(doc.Cells), doc.FailedCells)
		}
		cell, dead, err := m.runCell(ci, key, servers, clients)
		if err != nil {
			return doc, fmt.Errorf("cluster: cell %v: %w", key, err)
		}
		doc.Cells = append(doc.Cells, *cell)
		doc.TotalSessions += cell.Sessions
		doc.TotalCompleted += cell.Completed
		doc.TotalViolations += cell.Violations
		if cell.Err != "" {
			doc.FailedCells++
			m.logf("cell %v: dropped pairs: %s", key, cell.Err)
		}
		// Cull dead pairs (descending so earlier indices stay valid). The
		// wedged node's conn is poisoned — a late report would desync the
		// framing — and its partner has no peer for future cells, so both
		// go. Shutdown is best-effort; the close is what matters.
		for i := len(dead) - 1; i >= 0; i-- {
			p := dead[i]
			for _, n := range []*node{servers[p], clients[p]} {
				n.send(envelope{Type: TypeShutdown, Shutdown: true})
				n.close()
			}
			servers = append(servers[:p], servers[p+1:]...)
			clients = append(clients[:p], clients[p+1:]...)
		}
		m.logf("cell %v: completed=%d/%d violations=%d p50=%.1fms p99=%.1fms throughput=%.1f items/s",
			key, cell.Completed, cell.Sessions, cell.Violations,
			cell.Latency.P50, cell.Latency.P99, cell.ThroughputItemsPerSec)
	}
	return doc, nil
}

// assemble accepts control connections until the configured fleet has
// said hello. Extra or unknown-role connections are rejected.
func (m *Master) assemble(ctx context.Context) (servers, clients []*node, err error) {
	deadline := time.Now().Add(m.cfg.AssembleTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	type tln interface{ SetDeadline(time.Time) error }
	if dl, ok := m.ln.(tln); ok {
		dl.SetDeadline(deadline)
	}
	defer func() {
		if err != nil {
			for _, n := range append(servers, clients...) {
				n.close()
			}
		}
	}()
	for len(servers) < m.cfg.Servers || len(clients) < m.cfg.Clients {
		c, aerr := m.ln.Accept()
		if aerr != nil {
			return servers, clients, fmt.Errorf("cluster: master accept (%d/%d servers, %d/%d clients connected): %w",
				len(servers), m.cfg.Servers, len(clients), m.cfg.Clients, aerr)
		}
		c.SetDeadline(deadline)
		n := &node{conn: newConn(c)}
		env, herr := n.recv(TypeHello)
		if herr != nil || env.Hello == nil {
			c.Close()
			continue
		}
		n.hello = *env.Hello
		switch {
		case n.hello.Role == RoleServer && len(servers) < m.cfg.Servers:
			servers = append(servers, n)
		case n.hello.Role == RoleClient && len(clients) < m.cfg.Clients:
			clients = append(clients, n)
		default:
			c.Close()
			continue
		}
		c.SetDeadline(time.Time{})
		m.logf("node %q connected as %s (%d/%d servers, %d/%d clients)",
			n.hello.Name, n.hello.Role, len(servers), m.cfg.Servers, len(clients), m.cfg.Clients)
	}
	// Deterministic pairing: sort each role by node name so the same
	// fleet always forms the same pairs regardless of connect order.
	byName := func(ns []*node) {
		sort.Slice(ns, func(i, j int) bool { return ns[i].hello.Name < ns[j].hello.Name })
	}
	byName(servers)
	byName(clients)
	return servers, clients, nil
}

// runCell drives one grid cell across every pair: prepare both ends,
// exchange their bound data addresses, start them, and collect reports.
// With MasterConfig.CellTimeout set, a node failure marks its pair dead
// (returned indices, ascending) instead of aborting; the cell
// aggregates whatever reports survived, with BenchCell.Err describing
// the losses.
func (m *Master) runCell(ci int, key CellKey, servers, clients []*node) (*BenchCell, []int, error) {
	pairs := len(servers)
	sw := &m.cfg.Sweep
	seedBase := sw.Seed + int64(ci)*CellSeedStride

	// failure[p] non-empty marks pair p dead this cell; abort(p, err)
	// routes an error either into it (timed mode) or out (strict mode).
	failure := make([]string, pairs)
	strict := m.cfg.CellTimeout <= 0
	if !strict {
		dl := time.Now().Add(m.cfg.CellTimeout)
		for _, n := range append(append([]*node{}, servers...), clients...) {
			n.c.SetDeadline(dl)
		}
		defer func() {
			for p := 0; p < pairs; p++ {
				if failure[p] == "" {
					servers[p].c.SetDeadline(m.steady)
					clients[p].c.SetDeadline(m.steady)
				}
			}
		}()
	}

	// Split the cell's sessions across pairs; earlier pairs absorb the
	// remainder. A pair's assignment is identical for both ends except
	// for the client-side Rate and Impair.
	asgn := make([]Assignment, pairs)
	firstID := uint64(1)
	for p := 0; p < pairs; p++ {
		n := key.Sessions / pairs
		if p < key.Sessions%pairs {
			n++
		}
		// Chaos is shared by both ends (each node applies only the crash
		// points targeting its own half); Impair goes on the client's copy.
		spec := sw.cell(key)
		spec.Sessions, spec.FirstID, spec.Seed = n, firstID, seedBase
		spec.Impair = ""
		asgn[p] = Assignment{Cell: key, Spec: spec}
		firstID += uint64(n)
	}

	// Phase 1: prepare both ends of every pair, collect their bound
	// data-plane addresses. Every node advances concurrently — binding a
	// socket is quick, but a straggler must not serialize the fleet.
	type bound struct {
		addr string
		err  error
	}
	prep := func(n *node, a Assignment, out *bound) {
		if err := n.send(envelope{Type: TypePrepare, Prepare: &a}); err != nil {
			out.err = err
			return
		}
		env, err := n.recv(TypeReady)
		if err != nil {
			out.err = err
			return
		}
		if env.Ready != nil && env.Ready.Err != "" {
			out.err = fmt.Errorf("cluster: node %q: %s", n.hello.Name, env.Ready.Err)
			return
		}
		if env.Ready == nil || env.Ready.DataAddr == "" {
			out.err = fmt.Errorf("cluster: node %q sent empty ready", n.hello.Name)
			return
		}
		out.addr = env.Ready.DataAddr
	}
	srvBound := make([]bound, pairs)
	cliBound := make([]bound, pairs)
	var wg sync.WaitGroup
	for p := 0; p < pairs; p++ {
		ca := asgn[p]
		ca.Rate = key.Rate
		ca.Impair = key.Impair
		wg.Add(2)
		go func(p int) { defer wg.Done(); prep(servers[p], asgn[p], &srvBound[p]) }(p)
		go func(p int, ca Assignment) { defer wg.Done(); prep(clients[p], ca, &cliBound[p]) }(p, ca)
	}
	wg.Wait()
	for p := 0; p < pairs; p++ {
		var perr error
		switch {
		case srvBound[p].err != nil:
			perr = fmt.Errorf("prepare server %q: %w", servers[p].hello.Name, srvBound[p].err)
		case cliBound[p].err != nil:
			perr = fmt.Errorf("prepare client %q: %w", clients[p].hello.Name, cliBound[p].err)
		}
		if perr != nil {
			if strict {
				return nil, nil, perr
			}
			failure[p] = perr.Error()
		}
	}

	// Phase 2: cross the addresses and start both ends of every live
	// pair. From the first start onward the data plane is live; the
	// cell clock starts here.
	cellStart := time.Now()
	for p := 0; p < pairs; p++ {
		if failure[p] != "" {
			continue
		}
		var serr error
		if serr = servers[p].send(envelope{Type: TypeStart, Start: &Start{PeerAddr: cliBound[p].addr}}); serr == nil {
			serr = clients[p].send(envelope{Type: TypeStart, Start: &Start{PeerAddr: srvBound[p].addr}})
		}
		if serr != nil {
			if strict {
				return nil, nil, serr
			}
			failure[p] = serr.Error()
		}
	}

	// Collect every live node's report (they arrive as each node's half
	// of the cell finishes).
	type slot struct {
		n    *node
		pair int
	}
	var waiting []slot
	for p := 0; p < pairs; p++ {
		if failure[p] == "" {
			waiting = append(waiting, slot{servers[p], p}, slot{clients[p], p})
		}
	}
	reports := make([]NodeReport, len(waiting))
	errs := make([]error, len(waiting))
	wg.Add(len(waiting))
	for i, s := range waiting {
		go func(i int, n *node) {
			defer wg.Done()
			env, err := n.recv(TypeReport)
			if err != nil {
				errs[i] = err
				return
			}
			if env.Report == nil {
				errs[i] = fmt.Errorf("cluster: node %q sent empty report", n.hello.Name)
				return
			}
			reports[i] = *env.Report
		}(i, s.n)
	}
	wg.Wait()
	var ok []NodeReport
	for i, s := range waiting {
		var rerr error
		switch {
		case errs[i] != nil:
			rerr = fmt.Errorf("report from %q: %w", s.n.hello.Name, errs[i])
		case reports[i].Err != "":
			rerr = fmt.Errorf("node %q failed: %s", s.n.hello.Name, reports[i].Err)
		default:
			ok = append(ok, reports[i])
			continue
		}
		if strict {
			return nil, nil, rerr
		}
		if failure[s.pair] == "" {
			failure[s.pair] = rerr.Error()
		}
	}

	cell := aggregate(key, ok, time.Since(cellStart))
	var dead []int
	var msgs []string
	for p, f := range failure {
		if f != "" {
			dead = append(dead, p)
			msgs = append(msgs, fmt.Sprintf("pair %s↔%s: %s",
				servers[p].hello.Name, clients[p].hello.Name, f))
		}
	}
	cell.Err = strings.Join(msgs, "; ")
	return &cell, dead, nil
}
