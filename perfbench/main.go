// Command perfbench is the repository's benchmark: it drives the public
// surfaces users call — midas.Discover, midas.Session, and serve.Server
// over loopback HTTP with a store.Store — on seeded ReVerb-Slim
// workloads, checks every measured result for correctness, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) as
// one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload curate-session --seed 7 --seconds 20 --trace 0
//
// Workloads, metrics and the layer map are described in
// perfbench/README.md and BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"midas"
	"midas/internal/store"
)

var workloads = map[string]func(config, *tracer) (*outcome, error){
	"batch-reverb":   runBatch,
	"curate-session": runCurate,
	"serve-durable":  runDurable,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{domains: 100, setups: 3}
	flag.StringVar(&cfg.workload, "workload", "", "workload: batch-reverb, curate-session or serve-durable")
	flag.Int64Var(&cfg.seed, "seed", 7, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if err := run(cfg, *traced == 1, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run runs one workload and prints its report; a wrong result is an
// error after the report is printed.
func run(cfg config, traced bool, w io.Writer) error {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := midas.ConfigureLogging(io.Discard, "off", "logfmt"); err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir

	fmt.Fprintf(w, "# host: %s\n", hostStamp())
	fmt.Fprintf(w, "# run: workload=%s seed=%d seconds=%g trace=%v fsync=%s domains=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, traced, store.PolicyBatch, cfg.domains)
	res, lines, err := measure(wl, cfg, traced)
	if err != nil {
		return err
	}
	for _, l := range lines {
		fmt.Fprintln(w, "# "+l)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed or returned wrong results", res.Failed, res.Attempted)
	}
	return nil
}

// measure runs the workload and assembles the reported metrics with
// the human-readable lines that accompany them. A traced run measures
// an untraced half and a traced half of the window, each from its own
// set-up, and reports the per-layer metrics plus the tracing overhead.
func measure(wl func(config, *tracer) (*outcome, error), cfg config, traced bool) (*result, []string, error) {
	if !traced {
		o, err := wl(cfg, nil)
		if err != nil {
			return nil, nil, err
		}
		metrics, lines, err := endToEnd(o)
		if err != nil {
			return nil, nil, err
		}
		return newResult(metrics, o), lines, nil
	}
	half := cfg
	half.seconds, half.setups = cfg.seconds/2, 1
	plain, err := wl(half, nil)
	if err != nil {
		return nil, nil, err
	}
	t := newTracer()
	o, err := wl(half, t)
	if err != nil {
		return nil, nil, err
	}
	untracedP50, tracedP50 := median(plain.rec.get("discover")), median(o.rec.get("discover"))
	o.layers.set("trace.overhead_s", tracedP50-untracedP50, "s")
	lines := []string{fmt.Sprintf("discover_s.p50 untraced %.6f s, traced %.6f s", untracedP50, tracedP50)}
	for _, name := range o.layers.names() {
		m := o.layers[name]
		lines = append(lines, fmt.Sprintf("%s = %.6g %s", name, m.Value, m.Unit))
	}
	res := newResult(o.layers, o)
	a, f := plain.rec.counts()
	res.Attempted += a
	res.Failed += f
	res.Correct = res.Failed == 0
	lines = append(lines, failureLines(plain.rec)...)
	return res, append(lines, failureLines(o.rec)...), nil
}

func newResult(metrics map[string]metric, o *outcome) *result {
	a, f := o.rec.counts()
	return &result{Correct: f == 0, Attempted: a, Failed: f, Metrics: metrics}
}

// endToEnd computes the end-to-end metrics of an untraced run. Every
// operation must have been measured at least once.
func endToEnd(o *outcome) (map[string]metric, []string, error) {
	metrics := map[string]metric{}
	var lines []string
	put := func(name string, v float64, unit, note string) {
		metrics[name] = metric{Value: v, Unit: unit}
		lines = append(lines, fmt.Sprintf("%s = %.6g %s (%s)", name, v, unit, note))
	}
	put("setup_s", median(o.setups), "s", fmt.Sprintf("median of %d set-ups", len(o.setups)))
	for _, op := range []string{"discover", "ingest", "repeat_discover", "absorb", "progress", "result_get"} {
		xs := o.rec.get(op)
		if len(xs) == 0 {
			return nil, nil, fmt.Errorf("no %s operation completed in the window", op)
		}
		put(op+"_s.p50", median(xs), "s", fmt.Sprintf("p50, n=%d", len(xs)))
		switch op {
		case "discover":
			v, p := tail(xs)
			put(op+"_s.tail", v, "s", fmt.Sprintf("p%g, n=%d", p*100, len(xs)))
		case "ingest":
			// Printed, not reported: on curate-session the tail of a
			// microsecond AddFacts swings with GC overlap far beyond any
			// bound a regression gate could use.
			v, p := tail(xs)
			lines = append(lines, fmt.Sprintf("ingest_s.tail = %.6g s (p%g, n=%d; not gated)", v, p*100, len(xs)))
		}
	}
	attempted, failed := o.rec.counts()
	put("ops_per_s", float64(attempted-failed)/o.active, "1/s",
		fmt.Sprintf("%d operations in %.2f measured s", attempted-failed, o.active))
	put("peak_heap_mb", o.peakHeapMB, "MiB", "peak live heap while timing")
	put("discover_alloc_mb", median(o.allocs)/(1<<20), "MiB", fmt.Sprintf("per discovery, n=%d", len(o.allocs)))
	ratio := 0.0
	if attempted > 0 {
		ratio = float64(failed) / float64(attempted)
	}
	lines = append(lines, fmt.Sprintf("failed_ratio = %g (%d of %d operations)", ratio, failed, attempted))
	sort.Strings(lines)
	return metrics, append(lines, failureLines(o.rec)...), nil
}

func failureLines(r *recorder) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, n := range r.notes {
		out = append(out, "FAILED: "+strings.TrimSpace(n))
	}
	return out
}
