package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync/atomic"
)

// Histogram counts observations into fixed buckets (ascending upper
// bounds, +Inf implicit) and tracks the running sum. Observations are
// lock-free; a nil Histogram ignores them.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; immutable after creation
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records v into its bucket (first bound >= v; +Inf otherwise).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sumBits.Store(0)
}

// Bucket is one histogram bucket in a snapshot: the count of
// observations <= UpperBound (non-cumulative; the renderers cumulate).
type Bucket struct {
	// UpperBound is the bucket's inclusive upper bound; +Inf is the
	// catch-all bucket. Marshalled as the string Prometheus uses for le
	// ("+Inf"), since encoding/json rejects infinite float64s.
	UpperBound float64 `json:"-"`
	Count      int64   `json:"count"`
}

// bucketJSON is the wire form of Bucket.
type bucketJSON struct {
	UpperBound string `json:"le"`
	Count      int64  `json:"count"`
}

// MarshalJSON implements json.Marshaler.
func (b Bucket) MarshalJSON() ([]byte, error) {
	return json.Marshal(bucketJSON{UpperBound: promValue(b.UpperBound), Count: b.Count})
}

// UnmarshalJSON implements json.Unmarshaler.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var bj bucketJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		return err
	}
	switch bj.UpperBound {
	case "+Inf":
		b.UpperBound = math.Inf(1)
	case "-Inf":
		b.UpperBound = math.Inf(-1)
	default:
		v, err := strconv.ParseFloat(bj.UpperBound, 64)
		if err != nil {
			return fmt.Errorf("obs: bad bucket bound %q: %w", bj.UpperBound, err)
		}
		b.UpperBound = v
	}
	b.Count = bj.Count
	return nil
}

// HistogramSnapshot is the point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.Count(),
		Sum:     h.Sum(),
		Buckets: make([]Bucket, len(h.counts)),
	}
	for i := range h.counts {
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		s.Buckets[i] = Bucket{UpperBound: ub, Count: h.counts[i].Load()}
	}
	return s
}

// ExpBuckets returns n ascending bounds start, start*factor, ... — the
// standard exponential ladder for step counts and sizes.
func ExpBuckets(start, factor float64, n int) []float64 {
	bs := make([]float64, n)
	v := start
	for i := range bs {
		bs[i] = v
		v *= factor
	}
	return bs
}

// StepBuckets is the shared ladder for step-count observations (learn
// times, recovery depths, shrink replays): powers of two from 1 to 32768.
var StepBuckets = ExpBuckets(1, 2, 16)

// DurationBuckets is the shared ladder for second-valued durations: 1ms
// to ~32s in powers of two.
var DurationBuckets = ExpBuckets(0.001, 2, 16)

// MicroBuckets is the ladder for sub-millisecond latencies (a round trip,
// a timer's lag), in seconds: 1, 2 and 5 a decade from 1 µs to 10 ms.
var MicroBuckets = []float64{1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2}

// BatchBuckets is the ladder for coalescing sizes (frames per batch,
// writes per flush): powers of two from 1 to 4096, matching the wire
// layer's maximum batch.
var BatchBuckets = ExpBuckets(1, 2, 13)
