package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"seqtx/internal/cluster"
)

// announce is the stdout of a master under test: it keeps what is
// written and hands the control-plane address to addr once it appears.
type announce struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
}

var controlPlane = regexp.MustCompile(`control plane on (\S+),`)

func (a *announce) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.buf.Write(p)
	if m := controlPlane.FindSubmatch(p); m != nil {
		a.addr <- string(m[1])
	}
	return len(p), nil
}

func (a *announce) String() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.buf.String()
}

// TestSweepInProcess runs a one-server, one-client fleet against the
// master in process, the nodes joined through cluster.NodeMain as
// stpserve and stpload join it: a two-cell sweep exits 0, every cell
// moves frames with no safety violation, and the document parses.
func TestSweepInProcess(t *testing.T) {
	file := filepath.Join(t.TempDir(), "cluster.json")
	out := &announce{addr: make(chan string, 1)}
	var errw bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run(strings.Fields("sweep -listen 127.0.0.1:0 -servers 1 -clients 1 -sessions 4 -impairs none,burst-drop -assemble-timeout 20s -report "+file), out, &errw)
	}()
	var addr string
	select {
	case addr = <-out.addr:
	case code := <-done:
		t.Fatalf("the master exited %d before announcing its address\nstderr:\n%s", code, errw.String())
	}
	var nodes sync.WaitGroup
	nodeCodes := make([]int, 2)
	nodeOut := make([]bytes.Buffer, 2)
	for i, role := range []string{cluster.RoleServer, cluster.RoleClient} {
		nodes.Add(1)
		go func() {
			defer nodes.Done()
			nodeCodes[i] = cluster.NodeMain("node", role, addr, role, "", false, &nodeOut[i], &nodeOut[i])
		}()
	}
	code := <-done
	nodes.Wait()
	if code != 0 || !strings.Contains(out.String(), "safety violations 0") {
		t.Fatalf("exit %d; want 0 and no violation\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	for i := range nodeCodes {
		if nodeCodes[i] != 0 || !strings.Contains(nodeOut[i].String(), "done") {
			t.Errorf("node %d: exit %d, output %q; want 0 and a done line", i, nodeCodes[i], nodeOut[i].String())
		}
	}
	var doc struct {
		Cells []struct {
			FramesTx   int64 `json:"frames_tx"`
			FramesRx   int64 `json:"frames_rx"`
			Violations int   `json:"violations"`
		} `json:"cells"`
		TotalViolations int `json:"total_violations"`
	}
	data, err := os.ReadFile(file)
	if err == nil {
		err = json.Unmarshal(data, &doc)
	}
	if err != nil || len(doc.Cells) != 2 || doc.TotalViolations != 0 {
		t.Fatalf("document: %v, %d cells, %d violations; want 2 cells and none", err, len(doc.Cells), doc.TotalViolations)
	}
	for i, c := range doc.Cells {
		if c.FramesTx == 0 || c.FramesRx == 0 {
			t.Errorf("cell %d moved no frames: %+v", i, c)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-listen nowhere", "-listen must be host:port"},
		{"-servers 0", "-servers must be > 0"},
		{"-sessions 4,x", `-sessions: bad value "x"`},
		{"-rates ,", "-rates: empty axis"},
		{"sweep -no-such-flag", "flag provided but not defined"},
	} {
		var out, errw bytes.Buffer
		if code := run(strings.Fields(c.args), &out, &errw); code != 2 || !strings.Contains(errw.String(), c.want) {
			t.Errorf("stpmaster %s: exit %d, stderr %q; want exit 2 naming %q", c.args, code, errw.String(), c.want)
		}
	}
	var out, errw bytes.Buffer
	if code := run([]string{"sweep", "-h"}, &out, &errw); code != 0 || !strings.Contains(errw.String(), "-crash-presets") {
		t.Errorf("stpmaster sweep -h: exit %d, stderr %q; want 0 and the flag list", code, errw.String())
	}
}
