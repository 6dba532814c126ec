package obs

import (
	"fmt"
	"strings"
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

// Vec is a family of metrics of one kind partitioned by a small, fixed
// set of labels (round, depth, lattice level, decision, endpoint). Each
// distinct label-value combination owns one M, made by mk on first use;
// With is get-or-create at the Registry's lookup cost (one RLock + map
// probe). series renders one labelled metric as its snapshot S.
type Vec[M, S any] struct {
	name   string
	labels []string
	mk     func() M
	series func(labels map[string]string, m M) S
	fam    family[M]
}

// The four vector kinds a Registry hands out.
type (
	// CounterVec partitions counters, e.g. nodes pruned per lattice level.
	CounterVec = Vec[*Counter, LabeledCounter]
	// TimerVec partitions phase timers, e.g. the framework's per-depth
	// round timers.
	TimerVec = Vec[*Timer, LabeledTimer]
	// GaugeVec partitions gauges, e.g. per-session fact counts.
	GaugeVec = Vec[*Gauge, LabeledGauge]
	// HistogramVec partitions histograms that share one set of bucket
	// bounds, e.g. the per-endpoint request latencies of the serving path.
	HistogramVec = Vec[*Histogram, LabeledHistogram]
)

func newVec[M, S any](name string, labels []string, mk func() M, series func(map[string]string, M) S) *Vec[M, S] {
	return &Vec[M, S]{name: name, labels: append([]string(nil), labels...), mk: mk, series: series}
}

// With returns the metric for the given label values, creating it if
// needed. The number of values must match the vector's label names;
// mismatches panic (programmer error, like a malformed metric name).
// Returns nil (whose methods no-op) on a nil vector.
func (v *Vec[M, S]) With(values ...string) M {
	if v == nil {
		var zero M
		return zero
	}
	if len(values) != len(v.labels) {
		panic("obs: vector " + v.name + ": label value count mismatch")
	}
	return v.fam.get(strings.Join(values, labelSep), v.mk)
}

// VecSnapshot is the serialized state of a Vec: its label names and
// every series, sorted by label values for determinism.
type VecSnapshot[S any] struct {
	LabelNames []string `json:"label_names"`
	Series     []S      `json:"series"`
}

// The snapshot types of the four vector kinds.
type (
	CounterVecSnapshot   = VecSnapshot[LabeledCounter]
	TimerVecSnapshot     = VecSnapshot[LabeledTimer]
	GaugeVecSnapshot     = VecSnapshot[LabeledGauge]
	HistogramVecSnapshot = VecSnapshot[LabeledHistogram]
)

func (v *Vec[M, S]) snapshot() VecSnapshot[S] {
	v.fam.mu.RLock()
	defer v.fam.mu.RUnlock()
	s := VecSnapshot[S]{LabelNames: append([]string(nil), v.labels...)}
	for _, key := range sortedKeys(v.fam.m) {
		s.Series = append(s.Series, v.series(labelMap(v.labels, key), v.fam.m[key]))
	}
	return s
}

// LabeledCounter is one serialized series of a CounterVec.
type LabeledCounter struct {
	Labels map[string]string `json:"labels"`
	Value  int64             `json:"value"`
}

// LabeledTimer is one serialized series of a TimerVec.
type LabeledTimer struct {
	Labels map[string]string `json:"labels"`
	TimerSnapshot
}

// LabeledGauge is one serialized series of a GaugeVec.
type LabeledGauge struct {
	Labels map[string]string `json:"labels"`
	Value  float64           `json:"value"`
}

// LabeledHistogram is one serialized series of a HistogramVec.
type LabeledHistogram struct {
	Labels map[string]string `json:"labels"`
	HistogramSnapshot
}

func labelMap(names []string, key string) map[string]string {
	values := strings.Split(key, labelSep)
	m := make(map[string]string, len(names))
	for i, n := range names {
		m[n] = values[i]
	}
	return m
}
