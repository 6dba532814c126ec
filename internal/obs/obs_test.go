package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := New()
	const goroutines, perG = 32, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			for i := 0; i < perG; i++ {
				c.Inc()
				r.Counter("looked-up").Add(2)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != goroutines*perG {
		t.Errorf("shared = %d, want %d", got, goroutines*perG)
	}
	if got := r.Counter("looked-up").Value(); got != 2*goroutines*perG {
		t.Errorf("looked-up = %d, want %d", got, 2*goroutines*perG)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := New()
	const goroutines, perG = 16, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := r.Histogram("h")
			for i := 0; i < perG; i++ {
				h.Observe(float64(i % 7))
			}
		}(g)
	}
	wg.Wait()
	s := r.Histogram("h").snapshot()
	if s.Count != goroutines*perG {
		t.Errorf("count = %d, want %d", s.Count, goroutines*perG)
	}
	var bucketed int64
	for _, b := range s.Buckets {
		bucketed += b.Count
	}
	if bucketed != s.Count {
		t.Errorf("bucket counts sum to %d, want %d", bucketed, s.Count)
	}
	if s.Min != 0 || s.Max != 6 {
		t.Errorf("min/max = %v/%v, want 0/6", s.Min, s.Max)
	}
}

func TestTimerMinMaxMean(t *testing.T) {
	r := New()
	tm := r.Timer("phase")
	for _, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		tm.Observe(d)
	}
	s := tm.snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.MinSeconds != 0.01 || s.MaxSeconds != 0.03 {
		t.Errorf("min/max = %v/%v, want 0.01/0.03", s.MinSeconds, s.MaxSeconds)
	}
	if math.Abs(s.TotalSeconds-0.06) > 1e-9 || math.Abs(s.MeanSeconds-0.02) > 1e-9 {
		t.Errorf("total/mean = %v/%v, want 0.06/0.02", s.TotalSeconds, s.MeanSeconds)
	}
}

// populate fills a registry with one metric of each kind, with values
// chosen to exercise overflow buckets and min/max tracking.
func populate(r *Registry) {
	r.Counter("framework/sources_processed").Add(42)
	r.Gauge("framework/worker_utilization").Set(0.875)
	r.Timer("core/discover").Observe(1500 * time.Millisecond)
	r.Timer("core/discover").Observe(500 * time.Millisecond)
	h := r.Histogram("core/slice_profit")
	h.Observe(-3.5)
	h.Observe(12)
	h.Observe(2e6) // overflow bucket
}

func TestSnapshotDeterminism(t *testing.T) {
	r := New()
	populate(r)
	s1, s2 := r.Snapshot(), r.Snapshot()
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("consecutive snapshots differ:\n%+v\n%+v", s1, s2)
	}
	var b1, b2 bytes.Buffer
	if err := r.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Errorf("consecutive JSON serializations differ:\n%s\n%s", b1.String(), b2.String())
	}
	// Same metric history in a fresh registry must serialize identically.
	r2 := New()
	populate(r2)
	var b3 bytes.Buffer
	if err := r2.WriteJSON(&b3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b3.Bytes()) {
		t.Errorf("equivalent registries serialize differently:\n%s\n%s", b1.String(), b3.String())
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	populate(r)
	want := r.Snapshot()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("round trip changed the snapshot:\nwant %+v\ngot  %+v", want, got)
	}
	// The overflow bucket's "inf" bound must survive the round trip.
	hs := got.Histograms["core/slice_profit"]
	last := hs.Buckets[len(hs.Buckets)-1]
	if !math.IsInf(float64(last.UpperBound), 1) || last.Count != 1 {
		t.Errorf("overflow bucket = %+v, want le=+Inf count=1", last)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Timer("x").Observe(time.Second)
	r.Timer("x").Start()()
	r.Histogram("x").Observe(1)
	if v := r.Counter("x").Value(); v != 0 {
		t.Errorf("nil counter value = %d, want 0", v)
	}
	if s := r.Snapshot(); !reflect.DeepEqual(s, Snapshot{}) {
		t.Errorf("nil snapshot = %+v, want zero", s)
	}
	if r.OrDefault() != Default() {
		t.Error("nil OrDefault() should return Default()")
	}
	reg := New()
	if reg.OrDefault() != reg {
		t.Error("non-nil OrDefault() should return the receiver")
	}
}

func TestReset(t *testing.T) {
	r := New()
	populate(r)
	r.Reset()
	if s := r.Snapshot(); !reflect.DeepEqual(s, Snapshot{}) {
		t.Errorf("snapshot after reset = %+v, want zero", s)
	}
}

// TestWarmLookupsDoNotAllocate pins the cost the framework and the
// serving path pay per round and per request: a lookup of an existing
// metric, or of an existing one-label series, makes no allocation.
// (A multi-label With allocates its joined key, and Histogram's
// variadic bounds allocate at the call site.)
func TestWarmLookupsDoNotAllocate(t *testing.T) {
	r := New()
	lookups := map[string]func(){
		"Counter":           func() { r.Counter("c").Inc() },
		"Timer":             func() { r.Timer("t").Observe(time.Millisecond) },
		"CounterVec.With":   func() { r.CounterVec("cv", "depth").With("01").Inc() },
		"TimerVec.With":     func() { r.TimerVec("tv", "depth").With("01").Observe(time.Millisecond) },
		"HistogramVec.With": func() { r.HistogramVec("hv", DefaultLatencyBuckets, "endpoint").With("GET /x").Observe(0.01) },
	}
	for name, f := range lookups {
		f() // create
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("warm %s: %v allocs per lookup, want 0", name, n)
		}
	}
}
