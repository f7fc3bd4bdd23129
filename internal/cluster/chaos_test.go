package cluster

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"seqtx/internal/fleet"
)

// TestClusterChaosCell drives a sweep with a crash-restart axis: the
// "none" cell runs unsupervised, the crash-sender cell runs every
// session supervised (wire.ServeConfig.Chaos), the client crashing its
// sender halves on the preset schedule. The burst-drop impairment
// keeps sessions alive past the preset's crash ticks, so the crashes
// genuinely fire; amnesia restarts of an alpha sender replay the tape
// from the start, which the receiver absorbs safely — every session
// still completes with zero post-stabilization violations.
func TestClusterChaosCell(t *testing.T) {
	doc := runFleet(t, 1, 1, SweepConfig{
		Spec:         fleet.Spec{Proto: "alpha", M: 24, Items: 24, RestartPolicy: "amnesia", Tick: time.Millisecond, Deadline: 30 * time.Second, Seed: 5},
		Sessions:     []int{2},
		Impairs:      []string{"burst-drop"},
		CrashPresets: []string{"none", "crash-sender"},
	})
	if len(doc.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(doc.Cells))
	}
	plain, chaos := doc.Cells[0], doc.Cells[1]
	if plain.Cell.Chaos != "" || chaos.Cell.Chaos != "crash-sender" {
		t.Fatalf("cell keys: %v / %v", plain.Cell, chaos.Cell)
	}
	if plain.Incarnations != 0 {
		t.Errorf("unsupervised cell reported %d incarnations", plain.Incarnations)
	}
	for name, cell := range map[string]BenchCell{"plain": plain, "chaos": chaos} {
		if cell.Completed != 2 || cell.Sessions != 2 {
			t.Errorf("%s cell: completed %d/%d, want 2/2", name, cell.Completed, cell.Sessions)
		}
		if cell.Violations != 0 {
			t.Errorf("%s cell: %d violations", name, cell.Violations)
		}
	}
	if chaos.PostStabViolations != 0 {
		t.Errorf("chaos cell: %d post-stabilization violations", chaos.PostStabViolations)
	}
	// Both nodes supervised: baseline is one incarnation per session per
	// node (2 sessions × 2 nodes = 4); every client session crashes at
	// least once during the burst-drop stall, so the total exceeds it.
	if chaos.Incarnations <= 4 {
		t.Errorf("chaos cell: %d incarnations, want > 4 (crashes must fire)", chaos.Incarnations)
	}
}

// TestClusterChaosValidation pins the sweep-config gate: link presets
// don't belong on the chaos axis, and bad restart policies are
// rejected.
func TestClusterChaosValidation(t *testing.T) {
	base := func() MasterConfig {
		return MasterConfig{Listen: "127.0.0.1:0", Servers: 1, Clients: 1,
			Sweep: SweepConfig{Spec: fleet.Default()}}
	}
	cfg := base()
	cfg.Sweep.CrashPresets = []string{"burst-drop"}
	if _, err := NewMaster(cfg); err == nil || !strings.Contains(err.Error(), "link impairments go via -impair") {
		t.Errorf("link preset accepted on chaos axis: %v", err)
	}
	cfg = base()
	cfg.Sweep.CrashPresets = []string{"no-such-preset"}
	if _, err := NewMaster(cfg); err == nil {
		t.Error("unknown chaos preset accepted")
	}
	cfg = base()
	cfg.Sweep.RestartPolicy = "chaotic"
	if _, err := NewMaster(cfg); err == nil {
		t.Error("unknown restart policy accepted")
	}
}

// wedgedServer speaks just enough of the control protocol to get a cell
// assigned — hello, ready with a real (but deaf) UDP address, start —
// and then never reports, simulating a hung node. It returns when the
// master gives up on it and closes the conn.
func wedgedServer(t *testing.T, master, name string) {
	t.Helper()
	nc, err := net.Dial("tcp", master)
	if err != nil {
		t.Errorf("wedged node dial: %v", err)
		return
	}
	defer nc.Close()
	c := newConn(nc)
	if err := c.send(envelope{Type: TypeHello, Hello: &Hello{Role: RoleServer, Name: name}}); err != nil {
		t.Errorf("wedged node hello: %v", err)
		return
	}
	if _, err := c.recv(TypePrepare); err != nil {
		t.Errorf("wedged node prepare: %v", err)
		return
	}
	// A real socket that never answers: the peer's datagrams land in a
	// kernel buffer nobody reads.
	uc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Errorf("wedged node bind: %v", err)
		return
	}
	defer uc.Close()
	if err := c.send(envelope{Type: TypeReady, Ready: &Ready{DataAddr: uc.LocalAddr().String()}}); err != nil {
		t.Errorf("wedged node ready: %v", err)
		return
	}
	if _, err := c.recv(TypeStart); err != nil {
		t.Errorf("wedged node start: %v", err)
		return
	}
	// Wedge: never report. The next recv only returns once the master
	// has culled this pair and closed the conn.
	c.recv("")
}

// TestClusterCellTimeoutDropsWedgedPair is the per-cell recovery
// regression: a fleet of two pairs, one server wedged. With
// CellTimeout set, the first cell fails only for the wedged pair — its
// reports are dropped, BenchCell.Err names it — and the second cell
// runs to completion on the surviving pair.
func TestClusterCellTimeoutDropsWedgedPair(t *testing.T) {
	master, err := NewMaster(MasterConfig{
		Listen: "127.0.0.1:0", Servers: 2, Clients: 2,
		Sweep: SweepConfig{
			Spec:     fleet.Spec{Proto: "alpha", M: 8, Items: 3, Tick: 500 * time.Microsecond, Deadline: 2 * time.Second, Seed: 9},
			Sessions: []int{2, 2},
		},
		AssembleTimeout: 10 * time.Second,
		CellTimeout:     5 * time.Second,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatalf("NewMaster: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	// Healthy pair: names sort the wedged server into pair 0 ("server-a"
	// pairs with "client-a") so the test exercises mid-list removal too.
	for _, spec := range []struct{ role, name string }{
		{RoleServer, "server-b"},
		{RoleClient, "client-a"},
		{RoleClient, "client-b"},
	} {
		wg.Add(1)
		go func(role, name string) {
			defer wg.Done()
			// The healthy nodes may see their conn closed mid-sweep (the
			// wedged pair's partner) — that is expected, not a test failure.
			_ = RunNode(ctx, NodeConfig{
				Master: master.Addr(), Role: role, Name: name, Logf: t.Logf,
			})
		}(spec.role, spec.name)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		wedgedServer(t, master.Addr(), "server-a")
	}()

	doc, err := master.Run(ctx)
	if err != nil {
		t.Fatalf("master.Run: %v", err)
	}
	wg.Wait()

	if len(doc.Cells) != 2 {
		t.Fatalf("cells = %d, want 2 (sweep must continue past the wedged pair)", len(doc.Cells))
	}
	first, second := doc.Cells[0], doc.Cells[1]
	if first.Err == "" || !strings.Contains(first.Err, "server-a") {
		t.Errorf("first cell err = %q, want the wedged pair named", first.Err)
	}
	if doc.FailedCells != 1 {
		t.Errorf("failed cells = %d, want 1", doc.FailedCells)
	}
	// The healthy pair's share of cell 1 (1 of 2 sessions) still
	// completed and was aggregated despite the dead pair.
	if first.Completed != 1 {
		t.Errorf("first cell completed = %d, want 1 (the surviving pair's session)", first.Completed)
	}
	// Cell 2 runs on the surviving pair alone: all sessions, no error.
	if second.Err != "" {
		t.Errorf("second cell err = %q, want clean", second.Err)
	}
	if second.Completed != 2 || second.Violations != 0 {
		t.Errorf("second cell: completed=%d violations=%d, want 2/0", second.Completed, second.Violations)
	}
}
