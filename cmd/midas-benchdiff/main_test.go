package main

import (
	"math"
	"strings"
	"testing"

	"midas/internal/obs"
)

func snap(runSeconds float64, generated, prunedCanon, prunedProfit int64) obs.Snapshot {
	return obs.Snapshot{
		Timers: map[string]obs.TimerSnapshot{
			"framework/run": {Count: 1, TotalSeconds: runSeconds},
		},
		Counters: map[string]int64{
			"hierarchy/nodes_generated":     generated,
			"hierarchy/pruned_canonicity":   prunedCanon,
			"hierarchy/pruned_profit_bound": prunedProfit,
		},
	}
}

var defaultTh = Thresholds{MaxWallRegress: 0.20, MaxPruneDrop: 0.20, MinSeconds: 0.05, MinLevelNodes: 200}

func TestCompareWithinThresholds(t *testing.T) {
	rep := Compare(snap(1.0, 1000, 300, 200), snap(1.1, 1000, 310, 190), defaultTh)
	if len(rep.Regressions) != 0 {
		t.Errorf("regressions = %v, want none", rep.Regressions)
	}
}

func TestCompareWallRegression(t *testing.T) {
	rep := Compare(snap(1.0, 1000, 300, 200), snap(1.5, 1000, 300, 200), defaultTh)
	if len(rep.Regressions) != 1 || !strings.Contains(rep.Regressions[0], "wall time") {
		t.Errorf("regressions = %v, want one wall-time regression", rep.Regressions)
	}
}

func TestComparePruningDrop(t *testing.T) {
	// Ratio 0.5 → 0.3 is a 40% relative drop.
	rep := Compare(snap(1.0, 1000, 300, 200), snap(1.0, 1000, 200, 100), defaultTh)
	if len(rep.Regressions) != 1 || !strings.Contains(rep.Regressions[0], "pruning ratio") {
		t.Errorf("regressions = %v, want one pruning regression", rep.Regressions)
	}
}

func TestCompareNoiseFloorSkipsWall(t *testing.T) {
	// A 10ms baseline tripling is noise, not a regression.
	rep := Compare(snap(0.010, 1000, 300, 200), snap(0.030, 1000, 300, 200), defaultTh)
	if len(rep.Regressions) != 0 {
		t.Errorf("regressions = %v, want none below the noise floor", rep.Regressions)
	}
}

func TestCompareMissingBaselineCounters(t *testing.T) {
	rep := Compare(obs.Snapshot{}, snap(1.0, 1000, 300, 200), defaultTh)
	if len(rep.Regressions) != 0 {
		t.Errorf("regressions = %v, want none when the baseline is empty", rep.Regressions)
	}
	// The reverse — a current snapshot that lost its hierarchy counters
	// entirely — is a gate failure, not a skip.
	rep = Compare(snap(1.0, 1000, 300, 200), obs.Snapshot{}, defaultTh)
	found := false
	for _, r := range rep.Regressions {
		if strings.Contains(r, "no hierarchy counters") {
			found = true
		}
	}
	if !found {
		t.Errorf("regressions = %v, want missing-counters failure", rep.Regressions)
	}
}

// vecSnap extends a base snapshot with one per-level counter-vector
// triple and a per-depth timer vector.
func vecSnap(base obs.Snapshot, gen, canon, profit map[string]int64, depthSec map[string]float64) obs.Snapshot {
	cvec := func(m map[string]int64) obs.CounterVecSnapshot {
		s := obs.CounterVecSnapshot{LabelNames: []string{"level"}}
		for _, k := range sortedKeys(m) {
			s.Series = append(s.Series, obs.LabeledCounter{Labels: map[string]string{"level": k}, Value: m[k]})
		}
		return s
	}
	base.CounterVecs = map[string]obs.CounterVecSnapshot{
		"hierarchy/level/nodes_generated":     cvec(gen),
		"hierarchy/level/pruned_canonicity":   cvec(canon),
		"hierarchy/level/pruned_profit_bound": cvec(profit),
	}
	tvec := obs.TimerVecSnapshot{LabelNames: []string{"depth"}}
	for _, k := range sortedKeys(depthSec) {
		tvec.Series = append(tvec.Series, obs.LabeledTimer{
			Labels:        map[string]string{"depth": k},
			TimerSnapshot: obs.TimerSnapshot{Count: 1, TotalSeconds: depthSec[k]},
		})
	}
	base.TimerVecs = map[string]obs.TimerVecSnapshot{"framework/depth": tvec}
	return base
}

func regressionsMatching(rep Report, substr string) int {
	n := 0
	for _, r := range rep.Regressions {
		if strings.Contains(r, substr) {
			n++
		}
	}
	return n
}

func TestComparePerLevelPruningDrop(t *testing.T) {
	oldSnap := vecSnap(snap(1.0, 1000, 300, 200),
		map[string]int64{"01": 600, "02": 400},
		map[string]int64{"01": 180, "02": 200},
		map[string]int64{"01": 120, "02": 120},
		nil)
	// Aggregate ratio holds at 0.5 but level 02 collapses from 0.8 to
	// 0.4 while level 01 doubles — only the per-level check can see it.
	newSnap := vecSnap(snap(1.0, 1000, 300, 200),
		map[string]int64{"01": 600, "02": 400},
		map[string]int64{"01": 220, "02": 100},
		map[string]int64{"01": 120, "02": 60},
		nil)
	rep := Compare(oldSnap, newSnap, defaultTh)
	if regressionsMatching(rep, "per-level pruning: level 02") != 1 {
		t.Errorf("regressions = %v, want exactly one for level 02", rep.Regressions)
	}
	if regressionsMatching(rep, "level 01") != 0 {
		t.Errorf("regressions = %v, level 01 improved and must not regress", rep.Regressions)
	}
}

func TestComparePerLevelNoiseFloor(t *testing.T) {
	// 100 baseline nodes is below the 200-node floor: even a total
	// pruning collapse at that level is noise, not a regression.
	oldSnap := vecSnap(snap(1.0, 1000, 300, 200),
		map[string]int64{"04": 100}, map[string]int64{"04": 60}, map[string]int64{"04": 20}, nil)
	newSnap := vecSnap(snap(1.0, 1000, 300, 200),
		map[string]int64{"04": 100}, map[string]int64{"04": 0}, map[string]int64{"04": 0}, nil)
	rep := Compare(oldSnap, newSnap, defaultTh)
	if regressionsMatching(rep, "per-level") != 0 {
		t.Errorf("regressions = %v, want none below the per-level noise floor", rep.Regressions)
	}
}

func TestComparePerDepthWallRegression(t *testing.T) {
	oldSnap := vecSnap(snap(2.0, 1000, 300, 200), nil, nil, nil,
		map[string]float64{"01": 1.0, "02": 0.8, "03": 0.02})
	// Depth 02 slows 50%; depth 03 triples but sits below the noise
	// floor; depth 01 is within tolerance.
	newSnap := vecSnap(snap(2.1, 1000, 300, 200), nil, nil, nil,
		map[string]float64{"01": 1.1, "02": 1.2, "03": 0.06})
	rep := Compare(oldSnap, newSnap, defaultTh)
	if regressionsMatching(rep, "per-depth wall time: depth 02") != 1 {
		t.Errorf("regressions = %v, want exactly one for depth 02", rep.Regressions)
	}
	if got := regressionsMatching(rep, "per-depth"); got != 1 {
		t.Errorf("regressions = %v, want exactly one per-depth regression total", rep.Regressions)
	}
}

// TestCompareFixtures runs the whole gate over the two synthetic
// BENCH_stats fixtures: aggregate wall and pruning drift stay inside
// tolerance (the pruning drop lands at 19.6%, just under the 20%
// limit), while level 02's pruning collapse and depth 02's slowdown
// are flagged — and level 04 / depth 03 stay quiet under their noise
// floors.
func TestCompareFixtures(t *testing.T) {
	oldSnap, err := loadSnapshot("testdata/old.json")
	if err != nil {
		t.Fatal(err)
	}
	newSnap, err := loadSnapshot("testdata/new.json")
	if err != nil {
		t.Fatal(err)
	}
	th := defaultTh
	th.MinLevelNodes = 200
	rep := Compare(oldSnap, newSnap, th)
	if len(rep.Regressions) != 2 {
		t.Fatalf("regressions = %v, want exactly 2", rep.Regressions)
	}
	if regressionsMatching(rep, "per-level pruning: level 02") != 1 ||
		regressionsMatching(rep, "per-depth wall time: depth 02") != 1 {
		t.Errorf("regressions = %v, want level 02 pruning + depth 02 wall", rep.Regressions)
	}
	for _, banned := range []string{"level 04", "depth 03", "wall time: framework/run", "pruning ratio:"} {
		if regressionsMatching(rep, banned) != 0 {
			t.Errorf("regressions = %v, %q must stay within tolerance", rep.Regressions, banned)
		}
	}
}

func TestPruneRatio(t *testing.T) {
	if r, ok := pruneRatio(snap(0, 1000, 300, 200)); !ok || r != 0.5 {
		t.Errorf("pruneRatio = %v/%v, want 0.5/true", r, ok)
	}
	if _, ok := pruneRatio(obs.Snapshot{}); ok {
		t.Error("pruneRatio on empty snapshot should report not-ok")
	}
}

// latSnap extends a base snapshot with request-latency series: hist
// maps endpoint → histogram.
func latSnap(base obs.Snapshot, hist map[string]obs.HistogramSnapshot) obs.Snapshot {
	hv := obs.HistogramVecSnapshot{LabelNames: []string{"endpoint"}}
	for _, ep := range sortedKeys(hist) {
		hv.Series = append(hv.Series, obs.LabeledHistogram{
			Labels:            map[string]string{"endpoint": ep},
			HistogramSnapshot: hist[ep],
		})
	}
	base.HistogramVecs = map[string]obs.HistogramVecSnapshot{"serve/request_seconds": hv}
	return base
}

// hist builds a snapshot whose p99 lands 90% of the way into the
// second bucket: with buckets (lo, 90 obs) and (hi, 10 obs) the 99th
// of 100 observations interpolates to lo + 0.9*(hi-lo).
func hist(lo, hi float64) obs.HistogramSnapshot {
	return obs.HistogramSnapshot{
		Count: 100, Sum: 50, Min: lo / 2, Max: hi,
		Buckets: []obs.Bucket{
			{UpperBound: obs.JSONFloat(lo), Count: 90},
			{UpperBound: obs.JSONFloat(hi), Count: 10},
		},
	}
}

func TestHistQuantile(t *testing.T) {
	if _, ok := histQuantile(obs.HistogramSnapshot{}, 0.99); ok {
		t.Error("empty histogram should report not-ok")
	}
	// 99th of 100: 9 observations into the 10-count (0.05, 0.1] bucket.
	if p, ok := histQuantile(hist(0.05, 0.1), 0.99); !ok || p < 0.094 || p > 0.096 {
		t.Errorf("p99 = %v/%v, want ≈0.095", p, ok)
	}
	// Median falls inside the first bucket, whose lower edge is Min.
	if p, ok := histQuantile(hist(0.05, 0.1), 0.50); !ok || p <= 0.025 || p >= 0.05 {
		t.Errorf("p50 = %v/%v, want inside (Min, 0.05)", p, ok)
	}
	// An overflow bucket answers with the recorded max, not infinity.
	h := obs.HistogramSnapshot{
		Count: 100, Max: 2.5,
		Buckets: []obs.Bucket{
			{UpperBound: obs.JSONFloat(0.1), Count: 50},
			{UpperBound: obs.JSONFloat(inf()), Count: 50},
		},
	}
	if p, ok := histQuantile(h, 0.99); !ok || p != 2.5 {
		t.Errorf("overflow p99 = %v/%v, want Max 2.5", p, ok)
	}
}

func inf() float64 { return math.Inf(1) }

func TestCompareP99DisabledByDefault(t *testing.T) {
	oldSnap := latSnap(snap(1.0, 1000, 300, 200), map[string]obs.HistogramSnapshot{"GET /api/jobs": hist(0.01, 0.02)})
	newSnap := latSnap(snap(1.0, 1000, 300, 200), map[string]obs.HistogramSnapshot{"GET /api/jobs": hist(1, 2)})
	rep := Compare(oldSnap, newSnap, defaultTh) // MaxP99Regress zero
	if regressionsMatching(rep, "p99") != 0 {
		t.Errorf("regressions = %v, p99 check must stay disabled at limit 0", rep.Regressions)
	}
}

func TestCompareP99Regression(t *testing.T) {
	th := defaultTh
	th.MaxP99Regress = 0.5
	th.MinP99Seconds = 0.005
	oldSnap := latSnap(snap(1.0, 1000, 300, 200), map[string]obs.HistogramSnapshot{
		"POST /api/sessions/{name}/discover": hist(0.05, 0.1),    // regresses 10×
		"GET /api/jobs":                      hist(0.05, 0.1),    // stays put
		"GET /healthz":                       hist(0.001, 0.002), // below noise floor
	})
	newSnap := latSnap(snap(1.0, 1000, 300, 200), map[string]obs.HistogramSnapshot{
		"POST /api/sessions/{name}/discover": hist(0.5, 1.0),
		"GET /api/jobs":                      hist(0.05, 0.1),
		"GET /healthz":                       hist(0.5, 1.0),
	})
	rep := Compare(oldSnap, newSnap, th)
	if regressionsMatching(rep, "p99 latency: POST /api/sessions/{name}/discover") != 1 {
		t.Errorf("regressions = %v, want the discover endpoint flagged", rep.Regressions)
	}
	if got := regressionsMatching(rep, "p99"); got != 1 {
		t.Errorf("regressions = %v, want exactly one p99 regression", rep.Regressions)
	}
}

// reuseSnap layers framework source counters onto a baseline snapshot.
func reuseSnap(base obs.Snapshot, reused, processed int64) obs.Snapshot {
	base.Counters["framework/sources_reused"] = reused
	base.Counters["framework/sources_processed"] = processed
	return base
}

func TestCompareReuseDisabledByDefault(t *testing.T) {
	newSnap := reuseSnap(snap(1.0, 1000, 300, 200), 0, 100)
	rep := Compare(snap(1.0, 1000, 300, 200), newSnap, defaultTh) // MinReuseRatio zero
	if regressionsMatching(rep, "reuse") != 0 {
		t.Errorf("regressions = %v, reuse check must stay disabled at floor 0", rep.Regressions)
	}
}

func TestCompareReuseWithinFloor(t *testing.T) {
	th := defaultTh
	th.MinReuseRatio = 0.9
	newSnap := reuseSnap(snap(1.0, 1000, 300, 200), 95, 5)
	rep := Compare(snap(1.0, 1000, 300, 200), newSnap, th)
	if regressionsMatching(rep, "reuse") != 0 {
		t.Errorf("regressions = %v, want none at 95%% reuse", rep.Regressions)
	}
}

func TestCompareReuseBelowFloor(t *testing.T) {
	th := defaultTh
	th.MinReuseRatio = 0.9
	newSnap := reuseSnap(snap(1.0, 1000, 300, 200), 50, 50)
	rep := Compare(snap(1.0, 1000, 300, 200), newSnap, th)
	if regressionsMatching(rep, "reuse ratio") != 1 {
		t.Errorf("regressions = %v, want one reuse regression", rep.Regressions)
	}
}

func TestCompareReuseMissingCounters(t *testing.T) {
	th := defaultTh
	th.MinReuseRatio = 0.9
	rep := Compare(snap(1.0, 1000, 300, 200), snap(1.0, 1000, 300, 200), th)
	if regressionsMatching(rep, "reuse") != 1 {
		t.Errorf("regressions = %v, want a regression when counters are absent but the floor is set", rep.Regressions)
	}
}
