package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestIndexLabel: the table answers exactly as fmt does, inside and
// outside its range.
func TestIndexLabel(t *testing.T) {
	for _, i := range []int{-1, 0, 3, 10, 99, 100, 1234} {
		if got, want := IndexLabel(i), fmt.Sprintf("%02d", i); got != want {
			t.Errorf("IndexLabel(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestCounterVecBasics(t *testing.T) {
	r := New()
	v := r.CounterVec("hierarchy/level/pruned", "level")
	v.With("02").Add(5)
	v.With("02").Add(3)
	v.With("10").Inc()
	if got := v.With("02").Value(); got != 8 {
		t.Errorf(`series level=02 = %d, want 8`, got)
	}
	s := v.snapshot()
	if !reflect.DeepEqual(s.LabelNames, []string{"level"}) {
		t.Errorf("label names = %v", s.LabelNames)
	}
	if len(s.Series) != 2 {
		t.Fatalf("series count = %d, want 2", len(s.Series))
	}
	// Sorted by label values: "02" before "10".
	if s.Series[0].Labels["level"] != "02" || s.Series[0].Value != 8 {
		t.Errorf("series[0] = %+v", s.Series[0])
	}
	if s.Series[1].Labels["level"] != "10" || s.Series[1].Value != 1 {
		t.Errorf("series[1] = %+v", s.Series[1])
	}
	// Lookup by name returns the same vector.
	if r.CounterVec("hierarchy/level/pruned", "level") != v {
		t.Error("second CounterVec lookup returned a different vector")
	}
}

func TestTimerVecBasics(t *testing.T) {
	r := New()
	v := r.TimerVec("framework/depth", "depth")
	v.With("03").Observe(20 * time.Millisecond)
	v.With("03").Observe(40 * time.Millisecond)
	v.With("01").Observe(10 * time.Millisecond)
	s := v.snapshot()
	if len(s.Series) != 2 {
		t.Fatalf("series count = %d, want 2", len(s.Series))
	}
	if s.Series[0].Labels["depth"] != "01" || s.Series[0].Count != 1 {
		t.Errorf("series[0] = %+v", s.Series[0])
	}
	d3 := s.Series[1]
	if d3.Count != 2 || d3.MinSeconds != 0.02 || d3.MaxSeconds != 0.04 {
		t.Errorf("depth=03 = %+v, want count 2 min 0.02 max 0.04", d3)
	}
}

func TestGaugeVecBasics(t *testing.T) {
	r := New()
	v := r.GaugeVec("serve/inflight", "route")
	v.With("/api/discover").Set(3)
	v.With("/api/discover").Set(2)
	v.With("/healthz").Set(1)
	if got := v.With("/api/discover").Value(); got != 2 {
		t.Errorf(`series route=/api/discover = %v, want 2`, got)
	}
	s := v.snapshot()
	if !reflect.DeepEqual(s.LabelNames, []string{"route"}) {
		t.Errorf("label names = %v", s.LabelNames)
	}
	if len(s.Series) != 2 {
		t.Fatalf("series count = %d, want 2", len(s.Series))
	}
	if s.Series[0].Labels["route"] != "/api/discover" || s.Series[0].Value != 2 {
		t.Errorf("series[0] = %+v", s.Series[0])
	}
	if r.GaugeVec("serve/inflight", "route") != v {
		t.Error("second GaugeVec lookup returned a different vector")
	}
}

func TestHistogramVecBasics(t *testing.T) {
	r := New()
	v := r.HistogramVec("serve/request_seconds", []float64{0.01, 0.1, 1}, "route")
	v.With("/api/discover").Observe(0.05)
	v.With("/api/discover").Observe(0.5)
	v.With("/api/discover").Observe(5)
	v.With("/healthz").Observe(0.001)
	s := v.snapshot()
	if len(s.Series) != 2 {
		t.Fatalf("series count = %d, want 2", len(s.Series))
	}
	d := s.Series[0]
	if d.Labels["route"] != "/api/discover" || d.Count != 3 {
		t.Fatalf("series[0] = %+v", d)
	}
	if d.Sum != 5.55 || d.Min != 0.05 || d.Max != 5 {
		t.Errorf("sum/min/max = %v/%v/%v, want 5.55/0.05/5", d.Sum, d.Min, d.Max)
	}
	// Buckets are per-bound (non-cumulative) in snapshots, with the
	// overflow under +Inf — same shape as plain Histogram snapshots.
	counts := map[string]int64{}
	for _, b := range d.Buckets {
		counts[formatFloat(float64(b.UpperBound))] = b.Count
	}
	if counts["0.1"] != 1 || counts["1"] != 1 || counts["+Inf"] != 1 {
		t.Errorf("bucket counts = %v", counts)
	}
	// Default bounds kick in when none are given.
	dv := r.HistogramVec("other", nil, "l")
	dv.With("x").Observe(3)
	ds := dv.With("x").snapshot()
	if len(ds.Buckets) != 1 || float64(ds.Buckets[0].UpperBound) != 5 {
		t.Errorf("default-bounds snapshot buckets = %+v, want one bucket at le=5", ds.Buckets)
	}
	if r.HistogramVec("serve/request_seconds", nil, "route") != v {
		t.Error("second HistogramVec lookup returned a different vector")
	}
}

func TestVecLabelMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("With with wrong label count should panic")
		}
	}()
	New().CounterVec("x", "a", "b").With("only-one")
}

func TestVecNilSafety(t *testing.T) {
	var r *Registry
	r.CounterVec("x", "l").With("v").Add(1)
	r.TimerVec("x", "l").With("v").Observe(time.Second)
	r.GaugeVec("x", "l").With("v").Set(1)
	r.HistogramVec("x", nil, "l").With("v").Observe(1)
	var cv *CounterVec
	cv.With("v").Inc()
	var tv *TimerVec
	tv.With("v").Observe(time.Second)
	var gv *GaugeVec
	gv.With("v").Set(1)
	var hv *HistogramVec
	hv.With("v").Observe(1)
}

// populateVecs mirrors obs_test.populate for the labeled kinds.
func populateVecs(r *Registry) {
	cv := r.CounterVec("framework/consolidate", "decision", "depth")
	cv.With("parents_kept", "02").Add(7)
	cv.With("children_kept", "02").Add(3)
	cv.With("parents_kept", "01").Add(1)
	tv := r.TimerVec("framework/depth", "depth")
	tv.With("02").Observe(250 * time.Millisecond)
	tv.With("01").Observe(750 * time.Millisecond)
}

// TestVecWriteJSONDeterministic: on a quiesced registry, repeated
// WriteJSON calls must be byte-identical, and an equivalent registry
// built from the same history must serialize to the same bytes —
// including the labeled vectors.
func TestVecWriteJSONDeterministic(t *testing.T) {
	r := New()
	populate(r)
	populateVecs(r)
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
	r2 := New()
	populate(r2)
	populateVecs(r2)
	var b3 bytes.Buffer
	if err := r2.WriteJSON(&b3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b3.Bytes()) {
		t.Errorf("equivalent registries serialize differently:\n%s\n%s", b1.String(), b3.String())
	}
}

func TestVecSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	populateVecs(r)
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
}

// TestSnapshotDuringConcurrentWrites hammers counters, timers, and both
// vector kinds from many goroutines while the main goroutine snapshots
// and serializes; under -race this proves Snapshot is safe against
// in-flight writers (the CI race job runs this package).
func TestSnapshotDuringConcurrentWrites(t *testing.T) {
	r := New()
	const goroutines, perG = 16, 400
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			depth := []string{"01", "02", "03"}[g%3]
			for i := 0; i < perG; i++ {
				r.Counter("plain").Inc()
				r.CounterVec("vec", "depth").With(depth).Inc()
				r.TimerVec("tvec", "depth").With(depth).Observe(time.Microsecond)
				r.Timer("plain_timer").Observe(time.Microsecond)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				s := r.Snapshot()
				var buf bytes.Buffer
				if err := r.WriteJSON(&buf); err != nil {
					t.Error(err)
					return
				}
				_ = s
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done

	// Quiesced: totals must be exact.
	s := r.Snapshot()
	if got := s.Counters["plain"]; got != goroutines*perG {
		t.Errorf("plain counter = %d, want %d", got, goroutines*perG)
	}
	var vecTotal int64
	for _, series := range s.CounterVecs["vec"].Series {
		vecTotal += series.Value
	}
	if vecTotal != goroutines*perG {
		t.Errorf("vec series total = %d, want %d", vecTotal, goroutines*perG)
	}
	var timerCount int64
	for _, series := range s.TimerVecs["tvec"].Series {
		timerCount += series.Count
	}
	if timerCount != goroutines*perG {
		t.Errorf("tvec observation total = %d, want %d", timerCount, goroutines*perG)
	}
}
