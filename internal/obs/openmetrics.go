package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// OpenMetricsContentType is the Content-Type of the /metrics exposition,
// understood by Prometheus and every OpenMetrics-compatible scraper.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// metricPrefix namespaces every exported metric family, per Prometheus
// naming conventions.
const metricPrefix = "midas_"

// WriteOpenMetrics writes the registry's current state in the
// OpenMetrics text exposition format, ending with "# EOF".
//
// Mapping from the registry's metric kinds:
//
//   - counters (and counter-vector series) become counter families with
//     the _total sample suffix;
//   - gauges become gauge families;
//   - timers (and timer-vector series) become summary families in
//     seconds (_count and _sum samples) plus _min/_max gauge families;
//   - histograms become histogram families with cumulative buckets.
//
// Slashes in registry names map to underscores ("framework/run" →
// midas_framework_run); families are emitted in sorted name order and
// vector series in sorted label-value order, so repeated calls on a
// quiesced registry are byte-identical.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	return writeOpenMetrics(w, r.Snapshot())
}

// WriteOpenMetrics writes the snapshot in the OpenMetrics text format;
// see Registry.WriteOpenMetrics.
func (s Snapshot) WriteOpenMetrics(w io.Writer) error {
	return writeOpenMetrics(w, s)
}

func writeOpenMetrics(w io.Writer, s Snapshot) error {
	bw := bufio.NewWriter(w)
	writeKind(bw, s.Counters, s.CounterVecs, writeCounters,
		func(v int64) LabeledCounter { return LabeledCounter{Value: v} })
	writeKind(bw, s.Gauges, s.GaugeVecs, writeGauges,
		func(v float64) LabeledGauge { return LabeledGauge{Value: v} })
	writeKind(bw, s.Timers, s.TimerVecs, writeTimers,
		func(t TimerSnapshot) LabeledTimer { return LabeledTimer{TimerSnapshot: t} })
	writeKind(bw, s.Histograms, s.HistogramVecs, writeHistograms,
		func(h HistogramSnapshot) LabeledHistogram { return LabeledHistogram{HistogramSnapshot: h} })
	fmt.Fprint(bw, "# EOF\n")
	return bw.Flush()
}

// writeKind writes every family of one metric kind in sorted name
// order: first the scalars, each as a family of one unlabelled series
// (renderLabels(nil, …) is ""), then the vectors. write emits one
// family's TYPE lines and samples.
func writeKind[V, S any](w io.Writer, scalars map[string]V, vecs map[string]VecSnapshot[S],
	write func(w io.Writer, fam string, v VecSnapshot[S]), series func(V) S) {
	for _, name := range sortedKeys(scalars) {
		write(w, sanitizeName(name), VecSnapshot[S]{Series: []S{series(scalars[name])}})
	}
	for _, name := range sortedKeys(vecs) {
		write(w, sanitizeName(name), vecs[name])
	}
}

func writeCounters(w io.Writer, fam string, v CounterVecSnapshot) {
	fmt.Fprintf(w, "# TYPE %s counter\n", fam)
	for _, c := range v.Series {
		fmt.Fprintf(w, "%s_total%s %d\n", fam, renderLabels(v.LabelNames, c.Labels), c.Value)
	}
}

func writeGauges(w io.Writer, fam string, v GaugeVecSnapshot) {
	fmt.Fprintf(w, "# TYPE %s gauge\n", fam)
	for _, g := range v.Series {
		fmt.Fprintf(w, "%s%s %s\n", fam, renderLabels(v.LabelNames, g.Labels), formatFloat(g.Value))
	}
}

func writeTimers(w io.Writer, fam string, v TimerVecSnapshot) {
	fam += "_seconds"
	fmt.Fprintf(w, "# TYPE %s summary\n", fam)
	fmt.Fprintf(w, "# TYPE %s_min gauge\n# TYPE %s_max gauge\n", fam, fam)
	for _, t := range v.Series {
		labels := renderLabels(v.LabelNames, t.Labels)
		fmt.Fprintf(w, "%s_count%s %d\n", fam, labels, t.Count)
		fmt.Fprintf(w, "%s_sum%s %s\n", fam, labels, formatFloat(t.TotalSeconds))
		if t.Count > 0 {
			fmt.Fprintf(w, "%s_min%s %s\n", fam, labels, formatFloat(t.MinSeconds))
			fmt.Fprintf(w, "%s_max%s %s\n", fam, labels, formatFloat(t.MaxSeconds))
		}
	}
}

func writeHistograms(w io.Writer, fam string, v HistogramVecSnapshot) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", fam)
	for _, h := range v.Series {
		labels := renderLabels(v.LabelNames, h.Labels)
		cum := int64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			if math.IsInf(float64(b.UpperBound), 1) {
				continue // merged into the mandatory +Inf bucket below
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", fam, mergeLE(labels, formatFloat(float64(b.UpperBound))), cum)
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", fam, mergeLE(labels, "+Inf"), h.Count)
		fmt.Fprintf(w, "%s_count%s %d\n", fam, labels, h.Count)
		fmt.Fprintf(w, "%s_sum%s %s\n", fam, labels, formatFloat(h.Sum))
	}
}

// mergeLE appends the histogram bucket boundary label to an already
// rendered label set, e.g. {route="/x"} + 0.5 → {route="/x",le="0.5"}.
func mergeLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// renderLabels renders a label set as {k1="v1",k2="v2"}, keeping the
// vector's declared label order and escaping values per the OpenMetrics
// spec (backslash, double quote, and newline).
func renderLabels(names []string, values map[string]string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sanitizeLabelName(n))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[n]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabelValue(v string) string { return labelEscaper.Replace(v) }

// sanitizeName maps a registry metric name onto the OpenMetrics name
// charset [a-zA-Z0-9_:], prefixed with the midas_ namespace. Registry
// names use '/' as the hierarchy separator; it and any other invalid
// byte become '_'.
func sanitizeName(name string) string {
	var b strings.Builder
	b.Grow(len(metricPrefix) + len(name))
	b.WriteString(metricPrefix)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// sanitizeLabelName maps a label name onto [a-zA-Z0-9_] without the
// family namespace prefix (label names are scoped to their family).
func sanitizeLabelName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_',
			c >= '0' && c <= '9' && i > 0:
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[T any](m map[string]T) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
