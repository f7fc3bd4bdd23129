package cluster

import (
	"fmt"
	"time"

	"seqtx/internal/fleet"
	"seqtx/internal/stats"
)

// SweepConfig is the evaluation grid the master drives: every
// combination of Sessions × Rates × Impairs × CrashPresets is one cell,
// run across the whole node fleet before the next cell starts.
type SweepConfig struct {
	// Spec is what every cell shares: the protocol parameters, the
	// pacing, the restart policy, and the base Seed — cell c, session id
	// i derives its input from Seed + c*CellSeedStride + i, so no two
	// cells share a tape stream. Its Sessions, FirstID, Impair and Chaos
	// are per-cell values the master fills from the axes below.
	fleet.Spec

	// The grid axes. Zero-length axes default to a single neutral value.
	Sessions []int     // total concurrent sessions per cell (split across node pairs)
	Rates    []float64 // client session-start pacing, sessions/sec (0 = unpaced)
	Impairs  []string  // wire impairment presets ("none" = clean)
	// CrashPresets is the chaos axis: process-fault preset names (from
	// faults.PresetNames) whose crash points each node applies to its
	// own half supervised (wire.ServeConfig.Chaos; "none" = unsupervised).
	CrashPresets []string
}

// CellSeedStride spaces the per-cell seed bases far enough apart that no
// realistic cell's id range collides with the next cell's.
const CellSeedStride = 1 << 20

// CellKey identifies one cell of the sweep grid. Chaos is "" for
// unsupervised cells (the "none" axis value), so pre-chaos keys
// compare equal to their modern form.
type CellKey struct {
	Sessions int     `json:"sessions"`
	Rate     float64 `json:"rate"`
	Impair   string  `json:"impair"`
	Chaos    string  `json:"chaos,omitempty"`
}

func (k CellKey) String() string {
	s := fmt.Sprintf("sessions=%d rate=%g impair=%s", k.Sessions, k.Rate, k.Impair)
	if k.Chaos != "" {
		s += " chaos=" + k.Chaos
	}
	return s
}

// normalize fills defaulted axes and validates every cell of the grid
// with the one fleet check; it clamps no field a CLI would reject.
func (c *SweepConfig) normalize() error {
	if len(c.Sessions) == 0 {
		c.Sessions = []int{8}
	}
	if len(c.Rates) == 0 {
		c.Rates = []float64{0}
	}
	if len(c.Impairs) == 0 {
		c.Impairs = []string{"none"}
	}
	if len(c.CrashPresets) == 0 {
		c.CrashPresets = []string{"none"}
	}
	for _, key := range c.cells() {
		if key.Rate < 0 {
			return fmt.Errorf("cluster: sweep rates axis has negative value %g", key.Rate)
		}
		cell := c.cell(key)
		if err := cell.Validate(); err != nil {
			return fmt.Errorf("cluster: sweep cell %v: %w", key, err)
		}
	}
	return nil
}

// cell is the fleet description of one grid cell, before the master
// splits its sessions across node pairs.
func (c *SweepConfig) cell(key CellKey) fleet.Spec {
	spec := c.Spec
	spec.Sessions, spec.Impair, spec.Chaos = key.Sessions, key.Impair, key.Chaos
	return spec
}

// cells enumerates the grid in deterministic order: sessions outermost,
// then rate, then impairment, then chaos preset ("none" → "" in the
// key, keeping unsupervised keys in their historical shape).
func (c *SweepConfig) cells() []CellKey {
	keys := make([]CellKey, 0, len(c.Sessions)*len(c.Rates)*len(c.Impairs)*len(c.CrashPresets))
	for _, n := range c.Sessions {
		for _, r := range c.Rates {
			for _, im := range c.Impairs {
				for _, ch := range c.CrashPresets {
					if ch == "none" {
						ch = ""
					}
					keys = append(keys, CellKey{Sessions: n, Rate: r, Impair: im, Chaos: ch})
				}
			}
		}
	}
	return keys
}

// LatencyMS summarizes per-session completion latency in milliseconds.
type LatencyMS struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// BenchCell is one cell's aggregated outcome across the fleet.
type BenchCell struct {
	Cell CellKey `json:"cell"`

	Sessions   int `json:"sessions"`
	Completed  int `json:"completed"`
	Violations int `json:"violations"`

	ItemsDelivered        int64     `json:"items_delivered"`
	ThroughputItemsPerSec float64   `json:"throughput_items_per_sec"`
	Latency               LatencyMS `json:"latency_ms"`

	FramesTx          int64 `json:"frames_tx"`
	FramesRx          int64 `json:"frames_rx"`
	ForeignDrops      int64 `json:"foreign_drops"`
	BackpressureDrops int64 `json:"backpressure_drops"`
	OversizeDrops     int64 `json:"oversize_drops"`

	ElapsedSeconds float64 `json:"elapsed_seconds"`

	// Chaos tallies, summed across the fleet (zero for unsupervised
	// cells).
	Incarnations        int `json:"incarnations,omitempty"`
	BadWrites           int `json:"bad_writes,omitempty"`
	PostStabViolations  int `json:"post_stab_violations,omitempty"`
	WatchdogEscalations int `json:"watchdog_escalations,omitempty"`

	// Err records a cell-level failure (e.g. a node pair dropped by the
	// per-cell timeout); the aggregates above then cover only the
	// surviving nodes.
	Err string `json:"err,omitempty"`

	// Nodes keeps each node's raw report for the cell (latency samples
	// stripped — the summary above carries them).
	Nodes []NodeReport `json:"nodes"`
}

// BenchDoc is the sweep's output document (BENCH_cluster.json).
type BenchDoc struct {
	Proto    string  `json:"proto"`
	M        int     `json:"m"`
	Items    int     `json:"items"`
	Servers  int     `json:"servers"`
	Clients  int     `json:"clients"`
	Seed     int64   `json:"seed"`
	TickMS   float64 `json:"tick_ms"`
	Deadline string  `json:"deadline"`

	Cells []BenchCell `json:"cells"`

	// RestartPolicy echoes the chaos restart-policy override, when set.
	RestartPolicy string `json:"restart_policy,omitempty"`

	TotalSessions   int `json:"total_sessions"`
	TotalCompleted  int `json:"total_completed"`
	TotalViolations int `json:"total_violations"`
	// FailedCells counts cells that lost node pairs to the per-cell
	// timeout (their BenchCell.Err is set).
	FailedCells int `json:"failed_cells,omitempty"`
}

// aggregate folds one cell's node reports into a BenchCell. Latency
// percentiles come from the client side (a sender half's elapsed spans
// first send to final ack — the full round-trip pipeline); item and
// violation counts come from wherever they were observed (the receiver
// half owns the tape, so servers report deliveries; either side can
// observe a violation).
func aggregate(key CellKey, reports []NodeReport, elapsed time.Duration) BenchCell {
	cell := BenchCell{Cell: key, ElapsedSeconds: elapsed.Seconds()}
	var lat []float64
	for _, r := range reports {
		if r.Role == RoleClient {
			cell.Sessions += r.Sessions
			lat = append(lat, r.LatenciesMS...)
		}
		cell.Violations += r.Violations
		cell.ItemsDelivered += r.ItemsDelivered
		cell.FramesTx += r.FramesTx
		cell.FramesRx += r.FramesRx
		cell.ForeignDrops += r.ForeignDrops
		cell.BackpressureDrops += r.BackpressureDrops
		cell.OversizeDrops += r.OversizeDrops
		if r.Role == RoleServer {
			cell.Completed += r.Completed
		}
		cell.Incarnations += r.Incarnations
		cell.BadWrites += r.BadWrites
		cell.PostStabViolations += r.PostStabViolations
		cell.WatchdogEscalations += r.WatchdogEscalations
		stripped := r
		stripped.LatenciesMS = nil
		cell.Nodes = append(cell.Nodes, stripped)
	}
	if s := stats.Summarize(lat); s.N > 0 {
		cell.Latency = LatencyMS{P50: s.P50, P90: s.P90, P99: s.P99, Mean: s.Mean, Max: s.Max}
	}
	if cell.ElapsedSeconds > 0 {
		cell.ThroughputItemsPerSec = float64(cell.ItemsDelivered) / cell.ElapsedSeconds
	}
	return cell
}
