package cluster

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"testing"
	"time"

	"seqtx/internal/fleet"
)

// TestClusterHelperProcess is not a test: it is the node entry point the
// fork/exec round-trip re-invokes the test binary into. Guarded by env
// so a normal `go test` run skips straight past it.
func TestClusterHelperProcess(t *testing.T) {
	if os.Getenv("STP_CLUSTER_HELPER") != "1" {
		t.Skip("helper process entry point")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := RunNode(ctx, NodeConfig{
		Master: os.Getenv("STP_CLUSTER_MASTER"),
		Role:   os.Getenv("STP_CLUSTER_ROLE"),
		Name:   os.Getenv("STP_CLUSTER_NAME"),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper node:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// TestClusterTwoProcessRoundTrip is the real multi-process check: the
// server node and the client node are separate OS processes (the test
// binary re-exec'd), so the control plane crosses real TCP and the data
// plane crosses real peer-addressed UDP between distinct address
// spaces — nothing can accidentally share a transport struct the way
// the loopback-era wire tests did.
func TestClusterTwoProcessRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("fork/exec round-trip in -short mode")
	}
	master, err := NewMaster(MasterConfig{
		Listen: "127.0.0.1:0", Servers: 1, Clients: 1,
		Sweep: SweepConfig{
			Spec:     fleet.Spec{Proto: "alpha", M: 8, Items: 5, Tick: time.Millisecond, Deadline: 30 * time.Second, Seed: 21},
			Sessions: []int{4},
		},
		AssembleTimeout: 15 * time.Second,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatalf("NewMaster: %v", err)
	}

	spawn := func(role string) *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run=TestClusterHelperProcess")
		cmd.Env = append(os.Environ(),
			"STP_CLUSTER_HELPER=1",
			"STP_CLUSTER_MASTER="+master.Addr(),
			"STP_CLUSTER_ROLE="+role,
			"STP_CLUSTER_NAME="+role+"-proc",
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("spawn %s: %v", role, err)
		}
		return cmd
	}
	serverProc := spawn(RoleServer)
	clientProc := spawn(RoleClient)
	defer serverProc.Process.Kill()
	defer clientProc.Process.Kill()

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	doc, err := master.Run(ctx)
	if err != nil {
		t.Fatalf("master.Run: %v", err)
	}
	if err := serverProc.Wait(); err != nil {
		t.Errorf("server process: %v", err)
	}
	if err := clientProc.Wait(); err != nil {
		t.Errorf("client process: %v", err)
	}

	if len(doc.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(doc.Cells))
	}
	cell := doc.Cells[0]
	if cell.Completed != 4 || cell.Violations != 0 {
		t.Errorf("completed=%d violations=%d, want 4/0", cell.Completed, cell.Violations)
	}
	if cell.ItemsDelivered != 4*5 {
		t.Errorf("items delivered = %d, want 20", cell.ItemsDelivered)
	}
	if cell.FramesTx == 0 || cell.FramesRx == 0 {
		t.Errorf("no cross-process frames: tx=%d rx=%d", cell.FramesTx, cell.FramesRx)
	}
}
