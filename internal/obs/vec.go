package obs

import (
	"fmt"
	"strings"
	"sync"
)

// labelSep joins label values into a series key. 0xFF cannot appear in
// UTF-8 text, so joined keys are unambiguous.
const labelSep = "\xff"

// indexLabels holds IndexLabel's answers for 0..99.
var indexLabels = func() (t [100]string) {
	for i := range t {
		t[i] = fmt.Sprintf("%02d", i)
	}
	return t
}()

// IndexLabel renders a small index (a lattice level, a URL depth) as a
// two-digit label value, so lexical series order matches numeric order
// up to 99. It is called per build and per consolidation, so the
// two-digit values come from a table rather than fmt.
func IndexLabel(i int) string {
	if i >= 0 && i < len(indexLabels) {
		return indexLabels[i]
	}
	return fmt.Sprintf("%02d", i)
}

// CounterVec is a family of counters partitioned by a small, fixed set
// of labels (round, depth, lattice level, decision). Each distinct
// label-value combination owns one Counter; With is get-or-create and
// cheap enough for warm paths (one RLock + map probe), matching the
// Registry's lookup cost.
type CounterVec struct {
	name   string
	labels []string
	mu     sync.RWMutex
	series map[string]*Counter
}

// With returns the counter for the given label values, creating it if
// needed. The number of values must match the vector's label names;
// mismatches panic (programmer error, like a malformed metric name).
// Returns nil (whose methods no-op) on a nil vector.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	key := v.key(values)
	v.mu.RLock()
	c, ok := v.series[key]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.series[key]; !ok {
		c = &Counter{}
		v.series[key] = c
	}
	return c
}

func (v *CounterVec) key(values []string) string {
	if len(values) != len(v.labels) {
		panic("obs: CounterVec " + v.name + ": label value count mismatch")
	}
	return strings.Join(values, labelSep)
}

// TimerVec is a family of phase timers partitioned by labels, e.g. the
// per-hierarchy-depth round timers of the framework.
type TimerVec struct {
	name   string
	labels []string
	mu     sync.RWMutex
	series map[string]*Timer
}

// With returns the timer for the given label values, creating it if
// needed. Same contract as CounterVec.With.
func (v *TimerVec) With(values ...string) *Timer {
	if v == nil {
		return nil
	}
	if len(values) != len(v.labels) {
		panic("obs: TimerVec " + v.name + ": label value count mismatch")
	}
	key := strings.Join(values, labelSep)
	v.mu.RLock()
	t, ok := v.series[key]
	v.mu.RUnlock()
	if ok {
		return t
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if t, ok = v.series[key]; !ok {
		t = newTimer()
		v.series[key] = t
	}
	return t
}

// GaugeVec is a family of gauges partitioned by labels, e.g. the
// per-endpoint in-flight request counts of the serving path.
type GaugeVec struct {
	name   string
	labels []string
	mu     sync.RWMutex
	series map[string]*Gauge
}

// With returns the gauge for the given label values, creating it if
// needed. Same contract as CounterVec.With.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	if len(values) != len(v.labels) {
		panic("obs: GaugeVec " + v.name + ": label value count mismatch")
	}
	key := strings.Join(values, labelSep)
	v.mu.RLock()
	g, ok := v.series[key]
	v.mu.RUnlock()
	if ok {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok = v.series[key]; !ok {
		g = &Gauge{}
		v.series[key] = g
	}
	return g
}

// HistogramVec is a family of histograms partitioned by labels, all
// sharing one set of bucket bounds — e.g. the per-endpoint request
// latency distributions of the serving path.
type HistogramVec struct {
	name   string
	labels []string
	bounds []float64
	mu     sync.RWMutex
	series map[string]*Histogram
}

// With returns the histogram for the given label values, creating it if
// needed. Same contract as CounterVec.With.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	if len(values) != len(v.labels) {
		panic("obs: HistogramVec " + v.name + ": label value count mismatch")
	}
	key := strings.Join(values, labelSep)
	v.mu.RLock()
	h, ok := v.series[key]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok = v.series[key]; !ok {
		h = &Histogram{bounds: v.bounds, buckets: make([]int64, len(v.bounds)+1)}
		v.series[key] = h
	}
	return h
}

// LabeledCounter is one serialized series of a CounterVec.
type LabeledCounter struct {
	Labels map[string]string `json:"labels"`
	Value  int64             `json:"value"`
}

// CounterVecSnapshot is the serialized state of a CounterVec: its label
// names and every series, sorted by label values for determinism.
type CounterVecSnapshot struct {
	LabelNames []string         `json:"label_names"`
	Series     []LabeledCounter `json:"series"`
}

// LabeledTimer is one serialized series of a TimerVec.
type LabeledTimer struct {
	Labels map[string]string `json:"labels"`
	TimerSnapshot
}

// TimerVecSnapshot is the serialized state of a TimerVec.
type TimerVecSnapshot struct {
	LabelNames []string       `json:"label_names"`
	Series     []LabeledTimer `json:"series"`
}

// LabeledGauge is one serialized series of a GaugeVec.
type LabeledGauge struct {
	Labels map[string]string `json:"labels"`
	Value  float64           `json:"value"`
}

// GaugeVecSnapshot is the serialized state of a GaugeVec.
type GaugeVecSnapshot struct {
	LabelNames []string       `json:"label_names"`
	Series     []LabeledGauge `json:"series"`
}

// LabeledHistogram is one serialized series of a HistogramVec.
type LabeledHistogram struct {
	Labels map[string]string `json:"labels"`
	HistogramSnapshot
}

// HistogramVecSnapshot is the serialized state of a HistogramVec.
type HistogramVecSnapshot struct {
	LabelNames []string           `json:"label_names"`
	Series     []LabeledHistogram `json:"series"`
}

func labelMap(names []string, key string) map[string]string {
	values := strings.Split(key, labelSep)
	m := make(map[string]string, len(names))
	for i, n := range names {
		m[n] = values[i]
	}
	return m
}

func (v *CounterVec) snapshot() CounterVecSnapshot {
	v.mu.RLock()
	defer v.mu.RUnlock()
	s := CounterVecSnapshot{LabelNames: append([]string(nil), v.labels...)}
	for _, key := range sortedKeys(v.series) {
		s.Series = append(s.Series, LabeledCounter{
			Labels: labelMap(v.labels, key),
			Value:  v.series[key].Value(),
		})
	}
	return s
}

func (v *TimerVec) snapshot() TimerVecSnapshot {
	v.mu.RLock()
	defer v.mu.RUnlock()
	s := TimerVecSnapshot{LabelNames: append([]string(nil), v.labels...)}
	for _, key := range sortedKeys(v.series) {
		s.Series = append(s.Series, LabeledTimer{
			Labels:        labelMap(v.labels, key),
			TimerSnapshot: v.series[key].snapshot(),
		})
	}
	return s
}

func (v *GaugeVec) snapshot() GaugeVecSnapshot {
	v.mu.RLock()
	defer v.mu.RUnlock()
	s := GaugeVecSnapshot{LabelNames: append([]string(nil), v.labels...)}
	for _, key := range sortedKeys(v.series) {
		s.Series = append(s.Series, LabeledGauge{
			Labels: labelMap(v.labels, key),
			Value:  v.series[key].Value(),
		})
	}
	return s
}

func (v *HistogramVec) snapshot() HistogramVecSnapshot {
	v.mu.RLock()
	defer v.mu.RUnlock()
	s := HistogramVecSnapshot{LabelNames: append([]string(nil), v.labels...)}
	for _, key := range sortedKeys(v.series) {
		s.Series = append(s.Series, LabeledHistogram{
			Labels:            labelMap(v.labels, key),
			HistogramSnapshot: v.series[key].snapshot(),
		})
	}
	return s
}
