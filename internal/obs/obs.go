// Package obs is the pipeline's lightweight, dependency-free
// observability layer: named atomic counters, gauges, phase timers, and
// histograms collected in a Registry whose Snapshot serializes to
// deterministic JSON and whose WriteOpenMetrics serves /metrics.
//
// Every metric kind is held the same way: a family (one RWMutex over a
// name → metric map, the package's only get-or-create) per kind in the
// Registry, and a labelled kind is a Vec, one generic type whose series
// sit in a family keyed by their joined label values. CounterVec,
// TimerVec, GaugeVec and HistogramVec are its four instantiations.
//
// Design constraints, in order:
//
//   - zero allocation and lock-free on the hot update paths (counters,
//     gauges, and timers are atomics; histograms take a short mutex);
//   - safe for concurrent use from the framework's worker pool;
//   - nil-tolerant: every method is a no-op on a nil receiver, so
//     instrumented code never branches on "is observability enabled";
//   - no third-party dependencies (the snapshot is plain encoding/json).
//
// Instrumented packages accept an optional *Registry and fall back to
// the process-wide Default() registry via OrDefault, so binaries get a
// full picture without threading a registry through every call site,
// while tests and libraries can isolate themselves with New().
package obs

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value (utilization, rate, queue depth).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last value set (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Timer accumulates wall-clock durations of one phase: count, total,
// min, and max, all updated atomically.
type Timer struct {
	count atomic.Int64
	total atomic.Int64 // nanoseconds
	min   atomic.Int64 // nanoseconds; math.MaxInt64 until first observation
	max   atomic.Int64 // nanoseconds
}

// Observe records one phase execution of duration d.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	ns := int64(d)
	t.count.Add(1)
	t.total.Add(ns)
	for {
		cur := t.min.Load()
		if ns >= cur || t.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := t.max.Load()
		if ns <= cur || t.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

func newTimer() *Timer {
	t := &Timer{}
	t.min.Store(math.MaxInt64)
	return t
}

// Start begins timing a phase; the returned function stops the clock and
// records the elapsed duration. Usable as defer reg.Timer("x").Start()().
func (t *Timer) Start() func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.Observe(time.Since(start)) }
}

// TimerSnapshot is the serialized state of a Timer. Durations are
// reported in seconds for direct plotting against the paper's figures.
type TimerSnapshot struct {
	Count        int64   `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
	MinSeconds   float64 `json:"min_seconds"`
	MaxSeconds   float64 `json:"max_seconds"`
	MeanSeconds  float64 `json:"mean_seconds"`
}

func (t *Timer) snapshot() TimerSnapshot {
	n := t.count.Load()
	total := t.total.Load()
	s := TimerSnapshot{Count: n, TotalSeconds: seconds(total)}
	if n > 0 {
		s.MinSeconds = seconds(t.min.Load())
		s.MaxSeconds = seconds(t.max.Load())
		s.MeanSeconds = seconds(total / n)
	}
	return s
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// DefaultBuckets are the histogram upper bounds used when none are
// given: a coarse exponential ladder wide enough for slice counts,
// entity counts, and profits alike.
var DefaultBuckets = []float64{0, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 100000, 1000000}

// DefaultLatencyBuckets are upper bounds in seconds for request-latency
// histograms: sub-millisecond cache hits through multi-second discovery
// jobs.
var DefaultLatencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// Histogram counts observations into fixed upper-bound buckets and
// tracks count/sum/min/max. Observations above the last bound land in an
// implicit +Inf overflow bucket.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64
	buckets []int64 // len(bounds)+1; last is overflow
	count   int64
	sum     float64
	min     float64
	max     float64
}

// newHistogram returns an empty histogram over bounds, or over
// DefaultBuckets when bounds is empty.
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultBuckets
	}
	return &Histogram{bounds: bounds, buckets: make([]int64, len(bounds)+1)}
}

// Observe records one observation. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n identical observations in one update (used when a
// caller aggregates before reporting, e.g. per-level prune tallies).
func (h *Histogram) ObserveN(v float64, n int64) {
	if h == nil || n <= 0 || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.mu.Lock()
	h.buckets[i] += n
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count += n
	h.sum += v * float64(n)
	h.mu.Unlock()
}

// Bucket is one histogram bucket: the count of observations ≤ the upper
// bound. The overflow bucket has UpperBound = +Inf, serialized as "inf".
type Bucket struct {
	UpperBound JSONFloat `json:"le"`
	Count      int64     `json:"count"`
}

// HistogramSnapshot is the serialized state of a Histogram. Empty
// buckets are omitted to keep snapshots small.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum}
	if h.count > 0 {
		s.Min, s.Max = h.min, h.max
		s.Mean = h.sum / float64(h.count)
	}
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		s.Buckets = append(s.Buckets, Bucket{UpperBound: JSONFloat(ub), Count: n})
	}
	return s
}

// JSONFloat is a float64 whose JSON form supports ±Inf (as "inf" /
// "-inf" strings), needed for the overflow bucket bound.
type JSONFloat float64

func (f JSONFloat) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(f), 1) {
		return []byte(`"inf"`), nil
	}
	if math.IsInf(float64(f), -1) {
		return []byte(`"-inf"`), nil
	}
	return json.Marshal(float64(f))
}

func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"inf"`:
		*f = JSONFloat(math.Inf(1))
		return nil
	case `"-inf"`:
		*f = JSONFloat(math.Inf(-1))
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = JSONFloat(v)
	return nil
}

// Registry is a named collection of metrics, safe for concurrent use;
// the zero value is ready to use. All lookup methods get-or-create and
// are cheap enough to call on warm paths (one RLock + map probe); store
// the returned handle when a path is truly hot.
type Registry struct {
	counters      family[*Counter]
	gauges        family[*Gauge]
	timers        family[*Timer]
	histograms    family[*Histogram]
	counterVecs   family[*CounterVec]
	timerVecs     family[*TimerVec]
	gaugeVecs     family[*GaugeVec]
	histogramVecs family[*HistogramVec]
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

var defaultRegistry = New()

// Default returns the process-wide registry that instrumented packages
// fall back to when no explicit registry is threaded in. Binaries
// snapshot it for their -stats flag.
func Default() *Registry { return defaultRegistry }

// OrDefault returns r, or the process-wide Default() registry when r is
// nil. Instrumented packages call this once per operation.
func (r *Registry) OrDefault() *Registry {
	if r == nil {
		return Default()
	}
	return r
}

// family is one metric kind's get-or-create map, keyed by metric name
// (or, inside a Vec, by joined label values). It is the package's only
// get-or-create: a warm get is one RLock and one map probe, and a miss
// double-checks under the write lock so concurrent callers share one
// metric. The zero value is ready to use.
type family[M any] struct {
	mu sync.RWMutex
	m  map[string]M
}

func (f *family[M]) get(key string, mk func() M) M {
	f.mu.RLock()
	v, ok := f.m[key]
	f.mu.RUnlock()
	if ok {
		return v
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if v, ok = f.m[key]; !ok {
		if f.m == nil {
			f.m = make(map[string]M)
		}
		v = mk()
		f.m[key] = v
	}
	return v
}

func (f *family[M]) reset() {
	f.mu.Lock()
	f.m = nil
	f.mu.Unlock()
}

// snapshotOf applies fn to every metric of f, keyed by name; nil when f
// is empty, so the Snapshot field's omitempty drops it.
func snapshotOf[M, V any](f *family[M], fn func(M) V) map[string]V {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if len(f.m) == 0 {
		return nil
	}
	out := make(map[string]V, len(f.m))
	for name, m := range f.m {
		out[name] = fn(m)
	}
	return out
}

func newCounter() *Counter { return &Counter{} }
func newGauge() *Gauge     { return &Gauge{} }

// Counter returns the named counter, creating it if needed. Returns nil
// (whose methods no-op) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.counters.get(name, newCounter)
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.gauges.get(name, newGauge)
}

// Timer returns the named phase timer, creating it if needed.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	return r.timers.get(name, newTimer)
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds (DefaultBuckets when none; bounds must be sorted
// ascending). Bounds are fixed at first creation.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.histograms.get(name, func() *Histogram { return newHistogram(bounds) })
}

// CounterVec returns the named counter vector with the given label
// names, creating it if needed. Label names are fixed at first creation
// (like Histogram bounds); subsequent lookups by name return the
// original vector regardless of the labels argument.
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return r.counterVecs.get(name, func() *CounterVec {
		return newVec(name, labels, newCounter, func(l map[string]string, c *Counter) LabeledCounter {
			return LabeledCounter{Labels: l, Value: c.Value()}
		})
	})
}

// TimerVec returns the named timer vector with the given label names,
// creating it if needed. Same contract as CounterVec.
func (r *Registry) TimerVec(name string, labels ...string) *TimerVec {
	if r == nil {
		return nil
	}
	return r.timerVecs.get(name, func() *TimerVec {
		return newVec(name, labels, newTimer, func(l map[string]string, t *Timer) LabeledTimer {
			return LabeledTimer{Labels: l, TimerSnapshot: t.snapshot()}
		})
	})
}

// GaugeVec returns the named gauge vector with the given label names,
// creating it if needed. Same contract as CounterVec.
func (r *Registry) GaugeVec(name string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return r.gaugeVecs.get(name, func() *GaugeVec {
		return newVec(name, labels, newGauge, func(l map[string]string, g *Gauge) LabeledGauge {
			return LabeledGauge{Labels: l, Value: g.Value()}
		})
	})
}

// HistogramVec returns the named histogram vector with the given bucket
// upper bounds (nil/empty = DefaultBuckets; must be sorted ascending)
// and label names. Bounds and labels are fixed at first creation, like
// Histogram bounds and CounterVec labels.
func (r *Registry) HistogramVec(name string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return r.histogramVecs.get(name, func() *HistogramVec {
		bounds := append([]float64(nil), bounds...)
		return newVec(name, labels, func() *Histogram { return newHistogram(bounds) },
			func(l map[string]string, h *Histogram) LabeledHistogram {
				return LabeledHistogram{Labels: l, HistogramSnapshot: h.snapshot()}
			})
	})
}

// Reset clears every metric while keeping the registry usable. Handles
// obtained before Reset keep working but report into discarded state.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.counters.reset()
	r.gauges.reset()
	r.timers.reset()
	r.histograms.reset()
	r.counterVecs.reset()
	r.timerVecs.reset()
	r.gaugeVecs.reset()
	r.histogramVecs.reset()
}

// Snapshot is a point-in-time copy of a registry's metrics. Maps
// marshal with sorted keys, so the JSON form is deterministic for a
// given metric state.
type Snapshot struct {
	Counters      map[string]int64                `json:"counters,omitempty"`
	Gauges        map[string]float64              `json:"gauges,omitempty"`
	Timers        map[string]TimerSnapshot        `json:"timers,omitempty"`
	Histograms    map[string]HistogramSnapshot    `json:"histograms,omitempty"`
	CounterVecs   map[string]CounterVecSnapshot   `json:"counter_vecs,omitempty"`
	TimerVecs     map[string]TimerVecSnapshot     `json:"timer_vecs,omitempty"`
	GaugeVecs     map[string]GaugeVecSnapshot     `json:"gauge_vecs,omitempty"`
	HistogramVecs map[string]HistogramVecSnapshot `json:"histogram_vecs,omitempty"`
}

// Snapshot copies the current metric values. Individual metrics are read
// atomically; the snapshot as a whole is not a cross-metric atomic cut
// (concurrent writers may land between reads), which is fine for its
// purpose of end-of-run reporting.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	return Snapshot{
		Counters:      snapshotOf(&r.counters, (*Counter).Value),
		Gauges:        snapshotOf(&r.gauges, (*Gauge).Value),
		Timers:        snapshotOf(&r.timers, (*Timer).snapshot),
		Histograms:    snapshotOf(&r.histograms, (*Histogram).snapshot),
		CounterVecs:   snapshotOf(&r.counterVecs, (*CounterVec).snapshot),
		TimerVecs:     snapshotOf(&r.timerVecs, (*TimerVec).snapshot),
		GaugeVecs:     snapshotOf(&r.gaugeVecs, (*GaugeVec).snapshot),
		HistogramVecs: snapshotOf(&r.histogramVecs, (*HistogramVec).snapshot),
	}
}

// WriteJSON writes an indented JSON snapshot of the registry.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteFile writes a JSON snapshot to path, creating or truncating it.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = r.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
