package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// shortConfig runs a workload for a few rounds over a 10-domain corpus.
func shortConfig(workload string) config {
	return config{workload: workload, seed: 3, domains: 10, setups: 1, maxRounds: 8}
}

func lastResult(t *testing.T, out *bytes.Buffer) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return r
}

// TestShortRun runs every workload for a few rounds, untraced and
// traced, and checks that each metric BENCHMARK.json names is emitted
// with its unit and that no operation failed.
func TestShortRun(t *testing.T) {
	s := loadSpec(t)
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				var out bytes.Buffer
				if err := run(shortConfig(name), traced, &out); err != nil {
					t.Fatalf("traced=%v: %v\n%s", traced, err, &out)
				}
				r := lastResult(t, &out)
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Errorf("traced=%v: correct=%v failed=%d attempted=%d", traced, r.Correct, r.Failed, r.Attempted)
				}
				want := s.EndToEnd
				if traced {
					want = s.PerLayer
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s = %+v (present %v), want unit %s", traced, m.Name, got, ok, m.Unit)
					}
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics emitted, BENCHMARK.json names %d", traced, len(r.Metrics), len(want))
				}
			}
		})
	}
}

// TestCanary corrupts one result on the benchmark's side: the
// correctness gate must count it and the run must fail.
func TestCanary(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			cfg := shortConfig(name)
			cfg.canary = true
			var out bytes.Buffer
			if err := run(cfg, false, &out); err == nil {
				t.Fatalf("a corrupted result passed the correctness gate\n%s", &out)
			}
			if r := lastResult(t, &out); r.Correct || r.Failed == 0 {
				t.Errorf("canary run reported correct=%v failed=%d", r.Correct, r.Failed)
			}
		})
	}
}
