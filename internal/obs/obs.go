// Package obs is the zero-dependency observability layer: atomic
// counters, gauges, and fixed-bucket histograms collected in a Registry,
// a structured run-event sink, and profiling hooks, exposed as Prometheus
// text or a JSON snapshot.
//
// The whole package is built around a nil-sink fast path: a nil *Registry
// hands out nil metric handles, and every method on a nil handle is a
// single-branch no-op. Instrumented code therefore never checks "is
// observability on?" — it acquires its handles once per run (not per
// step) and updates them unconditionally; with observability off the
// updates compile down to a nil check and return. Instrumentation is
// observe-only: it never draws randomness, never feeds back into
// scheduling or protocol choices, and so cannot perturb the determinism
// contracts the sim/mc/soak layers pin (see DESIGN.md).
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil Counter ignores all updates.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n < 0 is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 value. The zero value is ready to use; a nil
// Gauge ignores all updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta in one atomic step, so concurrent Adds are never lost
// and the gauge always holds the sum of all of them.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry collects named metrics and run events. A nil Registry is the
// disabled sink: every lookup returns nil and every emit is dropped, at
// the cost of one branch. Lookups take a mutex; instrumented code is
// expected to resolve its handles once per run, outside hot loops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	events   eventLog
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (registering on first use) the named counter. Names may
// carry a baked-in Prometheus label suffix, e.g.
// `wire_frames_dropped_total{cause="inbox_full"}`.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram with
// the given ascending bucket upper bounds (a +Inf bucket is implicit).
// Bounds are fixed at first registration; later calls reuse the existing
// histogram regardless of the bounds argument.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every registered metric and clears the event log, keeping
// the registrations (handles held by instrumented code stay valid).
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
	r.events.reset()
}

// Snapshot captures a consistent point-in-time view of every metric and
// the buffered events. A nil Registry yields the zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:      make(map[string]int64, len(r.counters)),
		Gauges:        make(map[string]float64, len(r.gauges)),
		Histograms:    make(map[string]HistogramSnapshot, len(r.hists)),
		Events:        r.events.snapshot(),
		DroppedEvents: r.events.dropped,
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Snapshot is a point-in-time copy of a Registry, ready for rendering.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Events     []Event                      `json:"events,omitempty"`
	// DroppedEvents counts events lost to the bounded event buffer.
	DroppedEvents int64 `json:"dropped_events,omitempty"`
}

// sortedKeys returns m's keys in sorted order (deterministic exposition).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
