package obs

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"
)

// TestNilSinkIsSafe pins the disabled fast path: every operation on a nil
// registry and on nil handles must be a no-op, never a panic.
func TestNilSinkIsSafe(t *testing.T) {
	t.Parallel()
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", StepBuckets)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(5)
	g.Set(3.5)
	g.Add(1)
	h.Observe(7)
	r.Emit("kind", "k", "v")
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Events) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", snap)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	c.Add(-10) // counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("c"); again != c {
		t.Error("same name must return the same counter")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %f, want 2.5", got)
	}
	g.Add(1)
	g.Add(-4)
	if got := g.Value(); got != -0.5 {
		t.Errorf("gauge = %f after adding 1 and -4, want -0.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 100} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 6 {
		t.Errorf("count = %d, want 6", s.Count)
	}
	if math.Abs(s.Sum-108) > 1e-9 {
		t.Errorf("sum = %f, want 108", s.Sum)
	}
	wantCounts := []int64{2, 2, 1, 1} // le=1: {0.5,1}; le=2: {1.5,2}; le=4: {3}; +Inf: {100}
	for i, b := range s.Buckets {
		if b.Count != wantCounts[i] {
			t.Errorf("bucket %d (le=%g) = %d, want %d", i, b.UpperBound, b.Count, wantCounts[i])
		}
	}
	if !math.IsInf(s.Buckets[3].UpperBound, 1) {
		t.Errorf("last bucket bound = %g, want +Inf", s.Buckets[3].UpperBound)
	}
}

func TestResetKeepsRegistrations(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", StepBuckets)
	c.Add(3)
	h.Observe(2)
	r.Emit("e")
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("reset did not zero the metrics")
	}
	if ev := r.Snapshot().Events; len(ev) != 0 {
		t.Fatalf("reset left %d events", len(ev))
	}
	c.Inc() // the old handle must still feed the registry
	if got := r.Snapshot().Counters["c"]; got != 1 {
		t.Fatalf("post-reset counter snapshot = %d, want 1", got)
	}
}

func TestEventsOrderAndBound(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Emit("first", "k", "v", "dangling") // trailing unpaired key ignored
	r.Emit("second")
	snap := r.Snapshot()
	if len(snap.Events) != 2 || snap.Events[0].Kind != "first" || snap.Events[1].Kind != "second" {
		t.Fatalf("events = %+v", snap.Events)
	}
	if snap.Events[0].Seq != 1 || snap.Events[1].Seq != 2 {
		t.Fatalf("seqs = %d, %d", snap.Events[0].Seq, snap.Events[1].Seq)
	}
	if got := snap.Events[0].Fields; len(got) != 1 || got["k"] != "v" {
		t.Fatalf("fields = %v", got)
	}
	for i := 0; i < maxBufferedEvents+10; i++ {
		r.Emit("flood")
	}
	snap = r.Snapshot()
	if len(snap.Events) != maxBufferedEvents {
		t.Fatalf("buffer holds %d events, want %d", len(snap.Events), maxBufferedEvents)
	}
	if snap.DroppedEvents != 12 {
		t.Fatalf("dropped = %d, want 12", snap.DroppedEvents)
	}
	if last := snap.Events[len(snap.Events)-1]; last.Seq != int64(maxBufferedEvents+12) {
		t.Fatalf("last seq = %d, want %d", last.Seq, maxBufferedEvents+12)
	}
}

// TestConcurrentUpdates exercises every update path from many goroutines
// at once; run under -race this is the package's data-race proof, and the
// final counts prove no increment was lost.
func TestConcurrentUpdates(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("shared_total")
			own := r.Counter(fmt.Sprintf(`worker_total{worker="%d"}`, g))
			h := r.Histogram("obs_hist", StepBuckets)
			for i := 0; i < per; i++ {
				c.Inc()
				own.Inc()
				h.Observe(float64(i % 7))
				r.Gauge("level").Set(float64(i))
				if i%100 == 0 {
					r.Emit("tick", "g", fmt.Sprint(g))
				}
			}
		}(g)
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := snap.Counters["shared_total"]; got != goroutines*per {
		t.Errorf("shared counter = %d, want %d", got, goroutines*per)
	}
	for g := 0; g < goroutines; g++ {
		name := fmt.Sprintf(`worker_total{worker="%d"}`, g)
		if got := snap.Counters[name]; got != per {
			t.Errorf("%s = %d, want %d", name, got, per)
		}
	}
	if got := snap.Histograms["obs_hist"].Count; got != goroutines*per {
		t.Errorf("histogram count = %d, want %d", got, goroutines*per)
	}
}

func TestStartPprofServes(t *testing.T) {
	t.Parallel()
	addr, stop, err := StartPprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop() //nolint:errcheck
	resp, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}
