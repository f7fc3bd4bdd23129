package cluster

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"seqtx/internal/fleet"
)

// runFleet starts a master plus the named fleet in-process over real
// TCP/UDP sockets and returns the sweep document.
func runFleet(t *testing.T, servers, clients int, sweep SweepConfig) *BenchDoc {
	t.Helper()
	master, err := NewMaster(MasterConfig{
		Listen: "127.0.0.1:0", Servers: servers, Clients: clients,
		Sweep: sweep, AssembleTimeout: 10 * time.Second,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("NewMaster: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	nodeErrs := make(chan error, servers+clients)
	spawn := func(role string, i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := RunNode(ctx, NodeConfig{
				Master: master.Addr(), Role: role,
				Name: roleName(role, i), Logf: t.Logf,
			})
			if err != nil {
				nodeErrs <- err
			}
		}()
	}
	for i := 0; i < servers; i++ {
		spawn(RoleServer, i)
	}
	for i := 0; i < clients; i++ {
		spawn(RoleClient, i)
	}
	doc, err := master.Run(ctx)
	if err != nil {
		t.Fatalf("master.Run: %v", err)
	}
	wg.Wait()
	close(nodeErrs)
	for err := range nodeErrs {
		t.Errorf("node: %v", err)
	}
	return doc
}

func roleName(role string, i int) string {
	return role + "-" + string(rune('a'+i))
}

func TestMasterConfigValidation(t *testing.T) {
	if _, err := NewMaster(MasterConfig{Listen: "127.0.0.1:0", Servers: 2, Clients: 1}); err == nil {
		t.Error("unequal servers/clients accepted")
	}
	if _, err := NewMaster(MasterConfig{Listen: "127.0.0.1:0", Servers: 0, Clients: 0}); err == nil {
		t.Error("empty fleet accepted")
	}
	tooLong := fleet.Default()
	tooLong.M, tooLong.Items = 4, 9
	if _, err := NewMaster(MasterConfig{
		Listen: "127.0.0.1:0", Servers: 1, Clients: 1,
		Sweep: SweepConfig{Spec: tooLong},
	}); err == nil || !strings.Contains(err.Error(), "repetition-free") {
		t.Errorf("items > m accepted: %v", err)
	}
	if err := RunNode(context.Background(), NodeConfig{Master: "127.0.0.1:1", Role: "observer", Name: "x"}); err == nil {
		t.Error("unknown role accepted")
	}
}

// TestClusterSingleCell runs the smallest real fleet — one server, one
// client, one cell — and checks the full contract: every session
// completes, zero violations, latency and throughput populated, and the
// data plane genuinely crossed sockets (frames on both sides).
func TestClusterSingleCell(t *testing.T) {
	doc := runFleet(t, 1, 1, SweepConfig{
		Spec:     fleet.Spec{Proto: "alpha", M: 8, Items: 5, Tick: 500 * time.Microsecond, Deadline: 30 * time.Second, Seed: 7},
		Sessions: []int{6},
	})
	if len(doc.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(doc.Cells))
	}
	cell := doc.Cells[0]
	if cell.Sessions != 6 || cell.Completed != 6 {
		t.Errorf("completed %d/%d, want 6/6", cell.Completed, cell.Sessions)
	}
	if cell.Violations != 0 {
		t.Errorf("violations = %d, want 0", cell.Violations)
	}
	if cell.ItemsDelivered != 6*5 {
		t.Errorf("items delivered = %d, want 30", cell.ItemsDelivered)
	}
	if cell.Latency.P50 <= 0 || cell.Latency.P99 < cell.Latency.P50 {
		t.Errorf("latency summary degenerate: %+v", cell.Latency)
	}
	if cell.ThroughputItemsPerSec <= 0 {
		t.Errorf("throughput = %g, want > 0", cell.ThroughputItemsPerSec)
	}
	if cell.FramesTx == 0 || cell.FramesRx == 0 {
		t.Errorf("no frames crossed the wire: tx=%d rx=%d", cell.FramesTx, cell.FramesRx)
	}
	if len(cell.Nodes) != 2 {
		t.Errorf("node reports = %d, want 2", len(cell.Nodes))
	}
}

// TestClusterSweepGrid drives a multi-node fleet through a 2×2×2 grid —
// sessions × rate × impairment — the shape the stpmaster CLI runs. The
// impaired, rate-paced cells may finish slower but must stay safe, and
// the rate>0 cells exercise paced clients (wire.ServeConfig.StartEvery)
// against servers that start every half at once. Pacing is an attribute
// of the one runner, so it composes with the chaos axis: a crash-preset
// cell at rate 200 ramps its starts like any other.
func TestClusterSweepGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell sweep in -short mode")
	}
	sweep := SweepConfig{
		Spec:     fleet.Spec{Proto: "alpha", M: 8, Items: 4, Tick: 500 * time.Microsecond, Deadline: 20 * time.Second, Seed: 11},
		Sessions: []int{2, 4},
		Rates:    []float64{0, 200},
		Impairs:  []string{"none", "burst-drop"},
	}
	doc := runFleet(t, 2, 2, sweep)
	if want := 8; len(doc.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(doc.Cells), want)
	}
	if doc.TotalViolations != 0 {
		t.Errorf("violations = %d, want 0", doc.TotalViolations)
	}
	if doc.TotalSessions != 2*(2+4)*2 {
		t.Errorf("total sessions = %d, want %d", doc.TotalSessions, 2*(2+4)*2)
	}
	if doc.TotalCompleted != doc.TotalSessions {
		t.Errorf("completed %d/%d sessions", doc.TotalCompleted, doc.TotalSessions)
	}
	for _, cell := range doc.Cells {
		if cell.ItemsDelivered != int64(cell.Cell.Sessions)*4 {
			t.Errorf("cell %v: items = %d, want %d", cell.Cell, cell.ItemsDelivered, cell.Cell.Sessions*4)
		}
		// The 4-session cells split 2+2 across the two pairs; the
		// 2-session cells run 1 per pair. Every node must have reported.
		if len(cell.Nodes) != 4 {
			t.Errorf("cell %v: node reports = %d, want 4", cell.Cell, len(cell.Nodes))
		}
	}

	sweep.RestartPolicy = "amnesia"
	sweep.Sessions, sweep.Rates, sweep.Impairs, sweep.CrashPresets = []int{16}, []float64{200}, nil, []string{"crash-sender"}
	doc = runFleet(t, 2, 2, sweep)
	if len(doc.Cells) != 1 {
		t.Fatalf("chaos sweep: cells = %d, want 1", len(doc.Cells))
	}
	cell := doc.Cells[0]
	if cell.Cell.Chaos != "crash-sender" || cell.Cell.Rate != 200 || cell.Completed != 16 || cell.PostStabViolations != 0 || cell.Violations != 0 {
		t.Errorf("chaos cell %v: completed %d/16, %d post-stabilization violations, %d violations",
			cell.Cell, cell.Completed, cell.PostStabViolations, cell.Violations)
	}
	// Each client starts its 8 sessions 5 ms apart, so it is busy for the
	// 35 ms to its last start and then that session's life; started
	// together, for little more than the slowest session's life.
	for _, n := range cell.Nodes {
		if n.Role != RoleClient {
			continue
		}
		spread := time.Duration((n.ElapsedSeconds*1000 - cell.Latency.Max) * float64(time.Millisecond))
		if want := 7 * time.Second / 200 / 2; n.Sessions != 8 || spread < want {
			t.Errorf("client %s: %d sessions, busy %v longer than the slowest session lived, want 8 and at least %v: the starts were not paced",
				n.Node, n.Sessions, spread, want)
		}
	}
}

// TestClusterCellIsolation runs two consecutive cells and checks the
// second is clean: fresh sockets per cell mean no cross-cell session-id
// collisions or stale-datagram leaks (which would surface as violations
// or incomplete tapes in cell 2).
func TestClusterCellIsolation(t *testing.T) {
	doc := runFleet(t, 1, 1, SweepConfig{
		Spec:     fleet.Spec{Proto: "alpha", M: 8, Items: 3, Tick: 500 * time.Microsecond, Deadline: 20 * time.Second, Seed: 3},
		Sessions: []int{3, 3},
	})
	if len(doc.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(doc.Cells))
	}
	for i, cell := range doc.Cells {
		if cell.Completed != 3 || cell.Violations != 0 {
			t.Errorf("cell %d: completed=%d violations=%d, want 3/0", i, cell.Completed, cell.Violations)
		}
	}
}

// TestAssignmentWireFormat pins the control plane across the fold of the
// assignment's fleet fields into the embedded fleet.Spec: a prepare
// envelope marshalled before the fold unmarshals into the same values,
// and what is marshalled now carries the same keys (a node from either
// side of the change serves a master from the other).
func TestAssignmentWireFormat(t *testing.T) {
	const before = `{"type":"prepare","prepare":{"cell":{"sessions":16,"rate":100,"impair":"burst-drop","chaos":"crash-sender"},"proto":"modseq","m":24,"items":12,"timeout":8,"window":4,"cap":3,"sessions":8,"first_id":5,"seed":1048583,"tick_ns":500000,"deadline_ns":30000000000,"rate":100,"impair":"burst-drop","chaos":"crash-sender","restart_policy":"amnesia"}}`
	want := Assignment{
		Cell: CellKey{Sessions: 16, Rate: 100, Impair: "burst-drop", Chaos: "crash-sender"},
		Spec: fleet.Spec{
			Proto: "modseq", M: 24, Items: 12, Timeout: 8, Window: 4, Cap: 3,
			Sessions: 8, FirstID: 5, Seed: 1048583,
			Tick: 500 * time.Microsecond, Deadline: 30 * time.Second,
			Impair: "burst-drop", Chaos: "crash-sender", RestartPolicy: "amnesia",
		},
		Rate: 100,
	}
	var env envelope
	if err := json.Unmarshal([]byte(before), &env); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if env.Type != TypePrepare || env.Prepare == nil || *env.Prepare != want {
		t.Errorf("a pre-fold prepare unmarshals to %+v, want %+v", env.Prepare, want)
	}
	after, err := json.Marshal(envelope{Type: TypePrepare, Prepare: &want})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var was, now map[string]any
	json.Unmarshal([]byte(before), &was)
	json.Unmarshal(after, &now)
	if !reflect.DeepEqual(was, now) {
		t.Errorf("prepare now marshals to %s, want the members of %s", after, before)
	}

	// The optional members stay omitted when unset.
	const bare = `{"cell":{"sessions":4,"rate":0,"impair":"none"},"proto":"alpha","m":8,"items":6,"sessions":4,"first_id":1,"seed":1,"tick_ns":1000000,"deadline_ns":30000000000}`
	a := Assignment{Cell: CellKey{Sessions: 4, Impair: "none"}, Spec: fleet.Spec{
		Proto: "alpha", M: 8, Items: 6, Sessions: 4, FirstID: 1, Seed: 1,
		Tick: time.Millisecond, Deadline: 30 * time.Second}}
	if got, _ := json.Marshal(a); string(got) != bare {
		t.Errorf("bare assignment marshals to %s, want %s", got, bare)
	}
}
