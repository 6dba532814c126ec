// Command midas-benchdiff turns the CI bench-smoke artifact into a
// regression gate: it compares the current run's metrics snapshot
// (BENCH_stats.json, written by midas-bench -stats) against the
// previous run's and fails when the pipeline got materially slower or
// the pruning strategies got materially weaker.
//
// Checks:
//
//   - wall time: the framework/run phase timer's total seconds must not
//     regress by more than -max-wall-regress (default 20%). Baselines
//     below -min-seconds are skipped as noise — CI runners cannot
//     resolve a 20% change of a 10ms phase.
//   - pruning ratio: (pruned_canonicity + pruned_profit_bound) /
//     nodes_generated must not drop by more than -max-prune-drop
//     relative (default 20%). A drop means the hierarchy builder is
//     materializing lattice nodes it used to eliminate — the quantity
//     behind the paper's Section V pruning tables.
//   - per-level pruning: the same ratio check applied to each lattice
//     level from the hierarchy/level/* counter vectors, so a regression
//     confined to one level cannot hide inside a healthy aggregate.
//     Levels whose baseline generated fewer than -min-level-nodes nodes
//     are skipped as noise.
//   - per-depth round time: each URL-hierarchy depth's round timer
//     (framework/depth timer vector) gets the wall-time check, with the
//     same -max-wall-regress limit and -min-seconds noise floor, so a
//     slowdown confined to one round (e.g. the domain-level merge)
//     cannot hide inside a stable total.
//   - reuse ratio (optional, for delta-workload snapshots): the share
//     of sources the framework answered from a prior run,
//     framework/sources_reused / (sources_reused + sources_processed),
//     measured on the *current* snapshot only, must not fall below
//     -min-reuse-ratio. Disabled at the default 0 — from-scratch bench
//     runs reuse nothing; enable it on snapshots of incremental
//     workloads (e.g. service-smoke's re-discover after a one-source
//     facts POST).
//   - request p99 (optional, for serving-path snapshots such as the
//     final -stats dump of midas-serve): per-endpoint p99 latency
//     estimated from the serve/request_seconds histogram vector must
//     not regress by more than -max-p99-regress. Disabled at the
//     default -max-p99-regress 0; baselines below -min-p99-seconds are
//     skipped as noise.
//
// Usage:
//
//	midas-benchdiff -old previous/BENCH_stats.json -new BENCH_stats.json
//	midas-benchdiff -old prev/SERVE_stats.json -new SERVE_stats.json -max-p99-regress 0.5
//
// Exits 0 when within thresholds, 1 on a regression, 2 on usage or
// unreadable input. -allow-missing exits 0 when the old snapshot does
// not exist (first run, empty CI cache).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"midas/internal/obs"
)

func main() {
	var (
		oldPath      = flag.String("old", "", "previous metrics snapshot (required)")
		newPath      = flag.String("new", "", "current metrics snapshot (required)")
		maxWall      = flag.Float64("max-wall-regress", 0.20, "max relative framework/run wall-time regression")
		maxPruneDrop = flag.Float64("max-prune-drop", 0.20, "max relative pruning-ratio drop")
		minSeconds   = flag.Float64("min-seconds", 0.05, "skip the wall-time check below this baseline (noise floor)")
		minLevelGen  = flag.Int64("min-level-nodes", 200, "skip per-level pruning checks below this baseline node count (noise floor)")
		maxP99       = flag.Float64("max-p99-regress", 0, "max relative per-endpoint request-p99 regression (0 = check disabled)")
		minReuse     = flag.Float64("min-reuse-ratio", 0, "min framework source-reuse ratio in the current snapshot (0 = check disabled)")
		minP99       = flag.Float64("min-p99-seconds", 0.005, "skip the p99 check below this baseline (noise floor)")
		allowMissing = flag.Bool("allow-missing", false, "exit 0 when the old snapshot does not exist")
	)
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *allowMissing {
		if _, err := os.Stat(*oldPath); os.IsNotExist(err) {
			fmt.Printf("benchdiff: no baseline at %s, skipping (first run)\n", *oldPath)
			return
		}
	}
	oldSnap, err := loadSnapshot(*oldPath)
	if err != nil {
		fatal(err)
	}
	newSnap, err := loadSnapshot(*newPath)
	if err != nil {
		fatal(err)
	}
	report := Compare(oldSnap, newSnap, Thresholds{
		MaxWallRegress: *maxWall,
		MaxPruneDrop:   *maxPruneDrop,
		MinSeconds:     *minSeconds,
		MinLevelNodes:  *minLevelGen,
		MaxP99Regress:  *maxP99,
		MinP99Seconds:  *minP99,
		MinReuseRatio:  *minReuse,
	})
	for _, line := range report.Lines {
		fmt.Println(line)
	}
	if len(report.Regressions) > 0 {
		for _, r := range report.Regressions {
			fmt.Fprintln(os.Stderr, "REGRESSION:", r)
		}
		os.Exit(1)
	}
	fmt.Println("benchdiff: within thresholds")
}

// Thresholds bounds the accepted drift between two snapshots.
type Thresholds struct {
	// MaxWallRegress is the max relative increase of framework/run
	// total wall time (0.20 = +20%).
	MaxWallRegress float64
	// MaxPruneDrop is the max relative decrease of the hierarchy
	// pruning ratio.
	MaxPruneDrop float64
	// MinSeconds is the wall-time noise floor: baselines below it skip
	// the wall check (total and per-depth alike).
	MinSeconds float64
	// MinLevelNodes is the per-level noise floor: lattice levels whose
	// baseline generated fewer nodes skip the per-level pruning check.
	MinLevelNodes int64
	// MaxP99Regress is the max relative increase of an endpoint's
	// estimated request p99 (0 disables the check — bench snapshots
	// carry no serving-path histograms).
	MaxP99Regress float64
	// MinP99Seconds is the p99 noise floor: endpoints whose baseline
	// p99 is below it skip the check.
	MinP99Seconds float64
	// MinReuseRatio is the floor on the current snapshot's framework
	// source-reuse ratio, sources_reused / (reused + processed). 0
	// disables the check; it only makes sense for snapshots of
	// incremental (delta) workloads.
	MinReuseRatio float64
}

// Report is the outcome of a comparison: human-readable lines plus the
// subset that breached a threshold.
type Report struct {
	Lines       []string
	Regressions []string
}

// Compare checks the current snapshot against the baseline.
func Compare(oldSnap, newSnap obs.Snapshot, th Thresholds) Report {
	var rep Report

	oldWall := oldSnap.Timers["framework/run"].TotalSeconds
	newWall := newSnap.Timers["framework/run"].TotalSeconds
	switch {
	case oldWall <= 0:
		rep.Lines = append(rep.Lines, "wall time: no framework/run baseline, skipping")
	case oldWall < th.MinSeconds:
		rep.Lines = append(rep.Lines, fmt.Sprintf(
			"wall time: baseline %.3fs below %.3fs noise floor, skipping", oldWall, th.MinSeconds))
	default:
		rel := newWall/oldWall - 1
		line := fmt.Sprintf("wall time: framework/run %.3fs → %.3fs (%+.1f%%, limit +%.0f%%)",
			oldWall, newWall, rel*100, th.MaxWallRegress*100)
		rep.Lines = append(rep.Lines, line)
		if rel > th.MaxWallRegress {
			rep.Regressions = append(rep.Regressions, line)
		}
	}

	oldRatio, oldOK := pruneRatio(oldSnap)
	newRatio, newOK := pruneRatio(newSnap)
	switch {
	case !oldOK:
		rep.Lines = append(rep.Lines, "pruning: no baseline hierarchy counters, skipping")
	case !newOK:
		line := "pruning: current snapshot has no hierarchy counters"
		rep.Lines = append(rep.Lines, line)
		rep.Regressions = append(rep.Regressions, line)
	default:
		drop := 1 - newRatio/oldRatio
		line := fmt.Sprintf("pruning ratio: %.4f → %.4f (drop %.1f%%, limit %.0f%%)",
			oldRatio, newRatio, drop*100, th.MaxPruneDrop*100)
		rep.Lines = append(rep.Lines, line)
		if drop > th.MaxPruneDrop {
			rep.Regressions = append(rep.Regressions, line)
		}
	}

	comparePerLevel(&rep, oldSnap, newSnap, th)
	comparePerDepth(&rep, oldSnap, newSnap, th)
	compareP99(&rep, oldSnap, newSnap, th)
	compareReuse(&rep, newSnap, th)
	return rep
}

// compareReuse enforces the incremental-discovery floor: on a delta
// workload, the framework must answer at least MinReuseRatio of its
// sources from the prior run. Unlike the other checks it reads only
// the current snapshot — the baseline has no say in how much reuse the
// new code achieves.
func compareReuse(rep *Report, newSnap obs.Snapshot, th Thresholds) {
	if th.MinReuseRatio <= 0 {
		return
	}
	reused := newSnap.Counters["framework/sources_reused"]
	processed := newSnap.Counters["framework/sources_processed"]
	total := reused + processed
	if total == 0 {
		line := "reuse ratio: current snapshot has no framework source counters"
		rep.Lines = append(rep.Lines, line)
		rep.Regressions = append(rep.Regressions, line)
		return
	}
	ratio := float64(reused) / float64(total)
	line := fmt.Sprintf("reuse ratio: %d reused / %d total = %.3f (floor %.3f)",
		reused, total, ratio, th.MinReuseRatio)
	rep.Lines = append(rep.Lines, line)
	if ratio < th.MinReuseRatio {
		rep.Regressions = append(rep.Regressions, line)
	}
}

// compareP99 applies the latency check to each endpoint of the
// serving-path request instrumentation: p99 estimated from the
// serve/request_seconds histogram vector. Disabled unless the limit is
// positive — bench snapshots have no serving-path traffic — and
// endpoints below the baseline noise floor are skipped.
func compareP99(rep *Report, oldSnap, newSnap obs.Snapshot, th Thresholds) {
	if th.MaxP99Regress <= 0 {
		return
	}
	oldP99 := endpointP99s(oldSnap)
	if len(oldP99) == 0 {
		rep.Lines = append(rep.Lines, "p99 latency: no baseline request histograms, skipping")
		return
	}
	newP99 := endpointP99s(newSnap)
	for _, ep := range sortedKeys(oldP99) {
		op := oldP99[ep]
		np, inNew := newP99[ep]
		if op < th.MinP99Seconds {
			continue // baseline too fast to resolve a relative change
		}
		if !inNew {
			rep.Lines = append(rep.Lines, fmt.Sprintf(
				"p99 latency: endpoint %s vanished from current snapshot (%.4fs baseline)", ep, op))
			continue
		}
		rel := np/op - 1
		line := fmt.Sprintf("p99 latency: %s %.4fs → %.4fs (%+.1f%%, limit +%.0f%%)",
			ep, op, np, rel*100, th.MaxP99Regress*100)
		rep.Lines = append(rep.Lines, line)
		if rel > th.MaxP99Regress {
			rep.Regressions = append(rep.Regressions, line)
		}
	}
}

// endpointP99s maps endpoint → p99 seconds estimated from the
// request-latency histogram.
func endpointP99s(s obs.Snapshot) map[string]float64 {
	out := make(map[string]float64)
	for _, series := range s.HistogramVecs["serve/request_seconds"].Series {
		ep, ok := series.Labels["endpoint"]
		if !ok {
			continue
		}
		if p, ok := histQuantile(series.HistogramSnapshot, 0.99); ok {
			out[ep] = p
		}
	}
	return out
}

// histQuantile estimates quantile q from a bucketed snapshot: linear
// interpolation inside the bucket holding the q-th observation, with
// the recorded Min/Max clamping the first and overflow buckets (the
// snapshot omits empty buckets, so a bucket's lower edge is the
// previous retained bound). Reports false when nothing was observed.
func histQuantile(h obs.HistogramSnapshot, q float64) (float64, bool) {
	if h.Count == 0 {
		return 0, false
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	lo := h.Min
	for _, b := range h.Buckets {
		if cum+b.Count >= rank {
			ub := float64(b.UpperBound)
			if math.IsInf(ub, 1) {
				return h.Max, true
			}
			v := lo + (ub-lo)*float64(rank-cum)/float64(b.Count)
			return math.Min(math.Max(v, h.Min), h.Max), true
		}
		cum += b.Count
		lo = float64(b.UpperBound)
	}
	return h.Max, true
}

// comparePerLevel applies the pruning-ratio check to each lattice level
// from the hierarchy/level/* counter vectors (label "level"): a
// regression confined to one level must not hide inside a healthy
// aggregate. Levels below the baseline node-count noise floor, or
// absent from either snapshot, are skipped.
func comparePerLevel(rep *Report, oldSnap, newSnap obs.Snapshot, th Thresholds) {
	oldGen := counterVecValues(oldSnap, "hierarchy/level/nodes_generated", "level")
	if len(oldGen) == 0 {
		rep.Lines = append(rep.Lines, "per-level pruning: no baseline level vectors, skipping")
		return
	}
	newGen := counterVecValues(newSnap, "hierarchy/level/nodes_generated", "level")
	oldPruned := sumVecValues(
		counterVecValues(oldSnap, "hierarchy/level/pruned_canonicity", "level"),
		counterVecValues(oldSnap, "hierarchy/level/pruned_profit_bound", "level"))
	newPruned := sumVecValues(
		counterVecValues(newSnap, "hierarchy/level/pruned_canonicity", "level"),
		counterVecValues(newSnap, "hierarchy/level/pruned_profit_bound", "level"))
	for _, level := range sortedKeys(oldGen) {
		og := oldGen[level]
		ng, inNew := newGen[level]
		switch {
		case og < th.MinLevelNodes:
			continue // baseline too small to resolve a ratio change
		case !inNew || ng == 0:
			line := fmt.Sprintf("per-level pruning: level %s vanished from current snapshot (%d baseline nodes)", level, og)
			rep.Lines = append(rep.Lines, line)
			continue
		}
		oldRatio := float64(oldPruned[level]) / float64(og)
		newRatio := float64(newPruned[level]) / float64(ng)
		if oldRatio <= 0 {
			continue // nothing was pruned at this level before; no ratio to defend
		}
		drop := 1 - newRatio/oldRatio
		line := fmt.Sprintf("per-level pruning: level %s ratio %.4f → %.4f (drop %.1f%%, limit %.0f%%)",
			level, oldRatio, newRatio, drop*100, th.MaxPruneDrop*100)
		rep.Lines = append(rep.Lines, line)
		if drop > th.MaxPruneDrop {
			rep.Regressions = append(rep.Regressions, line)
		}
	}
}

// comparePerDepth applies the wall-time check to each URL-hierarchy
// depth's round timer (framework/depth timer vector, label "depth"),
// with the same regression limit and noise floor as the total.
func comparePerDepth(rep *Report, oldSnap, newSnap obs.Snapshot, th Thresholds) {
	oldSec := timerVecSeconds(oldSnap, "framework/depth", "depth")
	if len(oldSec) == 0 {
		rep.Lines = append(rep.Lines, "per-depth wall time: no baseline depth timers, skipping")
		return
	}
	newSec := timerVecSeconds(newSnap, "framework/depth", "depth")
	for _, depth := range sortedKeys(oldSec) {
		os := oldSec[depth]
		ns, inNew := newSec[depth]
		if os < th.MinSeconds {
			continue
		}
		if !inNew {
			rep.Lines = append(rep.Lines, fmt.Sprintf(
				"per-depth wall time: depth %s vanished from current snapshot (%.3fs baseline)", depth, os))
			continue
		}
		rel := ns/os - 1
		line := fmt.Sprintf("per-depth wall time: depth %s %.3fs → %.3fs (%+.1f%%, limit +%.0f%%)",
			depth, os, ns, rel*100, th.MaxWallRegress*100)
		rep.Lines = append(rep.Lines, line)
		if rel > th.MaxWallRegress {
			rep.Regressions = append(rep.Regressions, line)
		}
	}
}

// counterVecValues flattens one counter vector into labelValue → count,
// for vectors with a single label name.
func counterVecValues(s obs.Snapshot, name, label string) map[string]int64 {
	out := make(map[string]int64)
	for _, series := range s.CounterVecs[name].Series {
		if v, ok := series.Labels[label]; ok {
			out[v] += series.Value
		}
	}
	return out
}

// timerVecSeconds flattens one timer vector into labelValue → total
// seconds.
func timerVecSeconds(s obs.Snapshot, name, label string) map[string]float64 {
	out := make(map[string]float64)
	for _, series := range s.TimerVecs[name].Series {
		if v, ok := series.Labels[label]; ok {
			out[v] += series.TotalSeconds
		}
	}
	return out
}

func sumVecValues(a, b map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(a)+len(b))
	for k, v := range a {
		out[k] += v
	}
	for k, v := range b {
		out[k] += v
	}
	return out
}

// sortedKeys orders label values lexically; the fixed-width level/depth
// labels ("02", "10") make that numeric order too.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// pruneRatio computes the fraction of generated lattice nodes that the
// two pruning strategies eliminated.
func pruneRatio(s obs.Snapshot) (float64, bool) {
	generated := s.Counters["hierarchy/nodes_generated"]
	if generated == 0 {
		return 0, false
	}
	pruned := s.Counters["hierarchy/pruned_canonicity"] + s.Counters["hierarchy/pruned_profit_bound"]
	return float64(pruned) / float64(generated), true
}

func loadSnapshot(path string) (obs.Snapshot, error) {
	var s obs.Snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "midas-benchdiff:", err)
	os.Exit(2)
}
