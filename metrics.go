package midas

import (
	"io"
	"net/http"

	"midas/internal/obs"
)

// Metrics is a handle on an observability registry: the counters, phase
// timers, gauges, and histograms the pipeline emits as a side effect of
// every run (per-round shard counts and timings, hierarchy pruning
// tallies, consolidation keep/drop decisions, KB load throughput).
//
// Pass a Metrics via Options.Metrics to isolate one run's numbers;
// otherwise the pipeline reports into the shared DefaultMetrics()
// registry, which the midas and midas-bench binaries expose through
// their -stats flag. See README.md ("Observability & CI") for the
// snapshot schema.
type Metrics struct {
	reg *obs.Registry
}

// NewMetrics returns an empty, isolated metrics registry.
func NewMetrics() *Metrics { return &Metrics{reg: obs.New()} }

// DefaultMetrics returns the process-wide registry that instrumented
// code reports into when no explicit Metrics is configured.
func DefaultMetrics() *Metrics { return &Metrics{reg: obs.Default()} }

// WriteJSON writes an indented JSON snapshot of the collected metrics:
// {"counters": {...}, "gauges": {...}, "timers": {...},
// "histograms": {...}}, with keys sorted so output is deterministic for
// a given metric state.
func (m *Metrics) WriteJSON(w io.Writer) error { return m.reg.WriteJSON(w) }

// WriteFile writes a JSON snapshot to path, creating or truncating it.
func (m *Metrics) WriteFile(path string) error { return m.reg.WriteFile(path) }

// WriteOpenMetrics writes the collected metrics in the OpenMetrics /
// Prometheus text exposition format (the body served at /metrics).
func (m *Metrics) WriteOpenMetrics(w io.Writer) error { return m.reg.WriteOpenMetrics(w) }

// Handler returns the live-telemetry HTTP handler over this registry:
// /metrics (OpenMetrics text), /debug/vars (expvar JSON), and
// /debug/pprof. Mount it on any server to scrape a run while it is in
// flight.
func (m *Metrics) Handler() http.Handler { return obs.NewServeMux(m.reg) }

// Serve starts serving Handler() on addr in a background goroutine and
// returns the bound address (useful with ":0"). The server lives for
// the remainder of the process.
func (m *Metrics) Serve(addr string) (string, error) {
	a, err := obs.ListenAndServe(addr, m.reg)
	if err != nil {
		return "", err
	}
	return a.String(), nil
}

// Counter returns the current value of a named counter (0 if the
// counter has not been touched).
func (m *Metrics) Counter(name string) int64 { return m.reg.Counter(name).Value() }

// Reset clears all collected metrics.
func (m *Metrics) Reset() { m.reg.Reset() }

func (m *Metrics) registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// ConfigureLogging installs the process-wide log/slog logger that the
// serving path writes through, from the string forms midas-serve
// accepts as -log-level (debug|info|warn|error|off) and -log-format
// (logfmt|json). Level "off" disables logging, the default state of a
// fresh process.
func ConfigureLogging(w io.Writer, level, format string) error {
	return obs.ConfigureLogging(w, level, format)
}

// Tracer records spans — named, timed, parented intervals covering the
// whole pipeline run, each hierarchy round, and each source's
// build/detect/consolidate phases — and exports them as Chrome
// trace-event JSON loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Pass one via Options.Trace; a nil Tracer disables
// tracing at zero cost.
type Tracer struct {
	t *obs.Tracer
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{t: obs.NewTracer()} }

// WriteChromeTrace writes the spans recorded so far as Chrome
// trace-event JSON.
func (t *Tracer) WriteChromeTrace(w io.Writer) error { return t.t.WriteChromeTrace(w) }

// WriteFile writes the Chrome trace to path, creating or truncating it.
func (t *Tracer) WriteFile(path string) error { return t.t.WriteFile(path) }

func (t *Tracer) tracer() *obs.Tracer {
	if t == nil {
		return nil
	}
	return t.t
}
