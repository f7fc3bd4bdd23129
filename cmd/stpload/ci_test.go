//go:build ci

package main

import (
	"testing"

	"seqtx/internal/obs"
)

// The rows below run only under the ci build tag: each asserts a
// wall-clock figure or drives a fleet too large for tier-1.
func init() {
	smokes = append(smokes,
		smoke{
			// Each loop worker keeps an RFC 6298 estimate of the round
			// trip, sampled by Karn's rule from stop-and-wait frames that
			// were not retransmitted, and the sender's timer fires at the
			// backoff's own instant. Under 10 % loss every wave completes,
			// the round trips are measured and lie under the tick that
			// used to be the timeout, and retransmissions stay well under
			// one an item: an RTO that collapsed would flood the link
			// (≈ 0.14–0.17 an item on 2 vCPUs). An idle worker waits for
			// a sub-millisecond entry on its precise timer, so the median
			// lag of a popped entry stays under half a millisecond
			// (≈ 0.1–0.2 ms on 2 vCPUs; a Go-timer park alone oversleeps
			// to ≈ 1.1 ms), and some parks were precise.
			name: "rtt",
			args: "-proto alpha -m 8 -items 8 -sessions 128 -impair iid-loss(p=0.1) -duration 2s",
			check: func(t *testing.T, rep report, _ string) {
				allComplete(t, rep, 2)
				const tick = 1e-3 // stpload's default -tick, in seconds
				if rtt := median(t, rep.Metrics, "wire_rtt_seconds"); rtt >= tick {
					t.Errorf("median round trip %gs, want under the %gs tick", rtt, tick)
				}
				if share := float64(rep.Retransmits) / float64(rep.ItemsDelivered); share >= 0.5 {
					t.Errorf("%d retransmits for %d items, want under 0.5 an item", rep.Retransmits, rep.ItemsDelivered)
				}
				if lag := median(t, rep.Metrics, "wire_timer_lag_seconds"); lag >= 0.5e-3 {
					t.Errorf("median timer lag %gs, want under 0.5 ms", lag)
				}
				if n := rep.Metrics.Counters[`wire_worker_parks_total{park="precise"}`]; n == 0 {
					t.Error("no worker park was precise")
				}
			},
		},
		smoke{
			// The scale row: 100 k concurrent sessions (too many for the
			// race detector's shadow memory on a CI runner) under the
			// crash-restart preset. Its crashes sit at ticks 15–55 of a
			// session's life; a 10 ms tick puts them inside the wave.
			// Every session completes, crashes and scrambled restarts
			// fire, the peak RSS is recorded, and the goroutine count stays
			// flat: supervision lives on the loop workers.
			name: "chaos-100k",
			args: "-proto stab -crash-preset crash-scramble-both -restart-policy scramble -sessions 100000 -duration 1ms -tick 10ms -deadline 600s -items 3 -m 8",
			check: func(t *testing.T, rep report, _ string) {
				if rep.Sessions != 100000 {
					t.Errorf("%d sessions, want 100000", rep.Sessions)
				}
				allComplete(t, rep, 1)
				chaosFired(t, rep)
				flatFootprint(t, rep)
			},
		},
		smoke{
			// A reduced point of the scale sweep: one wave of 10 k plain
			// sessions, every one complete, with the footprint the sweep
			// records — the peak RSS, and a goroutine count that does not
			// grow with the fleet.
			name: "scale-10k",
			args: "-sessions 10000 -tick 20ms -duration 1ms -deadline 600s",
			check: func(t *testing.T, rep report, _ string) {
				allComplete(t, rep, 1)
				flatFootprint(t, rep)
			},
		},
	)
}

// flatFootprint fails unless the run recorded its peak RSS and peaked
// under 64 goroutines.
func flatFootprint(t *testing.T, rep report) {
	t.Helper()
	if rep.MaxRSSBytes <= 0 || rep.GoroutinesPeak >= 64 {
		t.Errorf("peak RSS %d B, %d goroutines at peak; want a recorded RSS and under 64 goroutines",
			rep.MaxRSSBytes, rep.GoroutinesPeak)
	}
}

// median interpolates the median of the named histogram within its
// bucket, failing when the histogram is empty.
func median(t *testing.T, snap obs.Snapshot, name string) float64 {
	t.Helper()
	h := snap.Histograms[name]
	if h.Count == 0 {
		t.Fatalf("histogram %s is empty", name)
	}
	half := float64(h.Count) / 2
	lo, seen := 0.0, 0.0
	for _, b := range h.Buckets {
		if seen+float64(b.Count) >= half {
			return lo + (b.UpperBound-lo)*(half-seen)/float64(b.Count)
		}
		lo, seen = b.UpperBound, seen+float64(b.Count)
	}
	t.Fatalf("histogram %s: no bucket holds the median: %+v", name, h)
	return 0
}
