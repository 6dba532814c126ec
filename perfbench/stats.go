package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// tailLadder lists the percentiles a tail may be reported at, highest
// first; a tail is the highest of them with at least minBeyond samples
// above it.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

const minBeyond = 10

// median returns the middle of xs (mean of the two middles when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest ladder percentile of xs that has at least
// minBeyond samples beyond it (nearest rank), and that percentile. With
// too few samples for any rung it falls back to the median.
func tail(xs []float64) (value, pct float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	for _, p := range tailLadder {
		if n*(1-p) >= minBeyond {
			rank := int(math.Ceil(p*n)) - 1
			return s[rank], p
		}
	}
	return median(xs), 0.5
}

// recorder collects one run's operation timings and outcome counts.
// Workloads with several clients share one recorder.
type recorder struct {
	mu       sync.Mutex
	samples  map[string][]float64
	attempts int64
	failures int64
	notes    []string
}

func newRecorder() *recorder { return &recorder{samples: map[string][]float64{}} }

// time runs one client-visible operation, recording its duration under
// op when it succeeds and counting it as failed when it returns an
// error.
func (r *recorder) time(op string, fn func() error) error {
	start := time.Now()
	err := fn()
	d := time.Since(start).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempts++
	if err != nil {
		r.failures++
		r.note("%s: %v", op, err)
		return err
	}
	r.samples[op] = append(r.samples[op], d)
	return nil
}

// wrong counts a completed operation whose result failed the
// correctness gate.
func (r *recorder) wrong(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failures++
	r.note(format, args...)
}

func (r *recorder) note(format string, args ...any) {
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func (r *recorder) get(op string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.samples[op]...)
}

func (r *recorder) counts() (attempted, failed int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attempts, r.failures
}

// heapSampler tracks the peak live heap (runtime/metrics
// /gc/heap/live:bytes, refreshed at every GC) while a timing window is
// open.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops sampling and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// allocatedBytes is the process's cumulative heap allocation.
func allocatedBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// hostStamp names the host and toolchain a run was measured on.
func hostStamp() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s os=%s/%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
