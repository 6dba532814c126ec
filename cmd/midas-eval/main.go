// Command midas-eval scores a discovery run against a silver standard.
//
// It reconstructs each predicted slice's fact set from the extraction
// corpus (all facts of the slice's entities under its source) and each
// silver slice's fact set from the silver-facts file, then reports
// precision, recall, and F-measure under the paper's evaluation rule:
// a predicted slice matches a silver slice when their fact-set Jaccard
// similarity exceeds 0.95, one-to-one.
//
// Usage:
//
//	midas-datagen -dataset reverb-slim -out data
//	midas -facts data/facts.tsv -kb data/kb.tsv -json > pred.json
//	midas-eval -pred pred.json -facts data/facts.tsv -silver data/silver-facts.tsv
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"midas/internal/eval"
	"midas/internal/kb"
	"midas/internal/obs"
	"midas/internal/source"
)

// prediction mirrors the JSON emitted by `midas -json`.
type prediction struct {
	Slices []struct {
		Source   string
		Entities []string
		Profit   float64
	}
}

func main() {
	var (
		predPath   = flag.String("pred", "", "predictions JSON from `midas -json` (required)")
		factsPath  = flag.String("facts", "", "extraction corpus TSV (required)")
		silverPath = flag.String("silver", "", "silver-facts TSV from midas-datagen (required)")
		verbose    = flag.Bool("v", false, "print per-slice matches")
		statsPath  = flag.String("stats", "", "write a JSON metrics snapshot (scoring counters and timings) to this file")
	)
	flag.Parse()
	if *predPath == "" || *factsPath == "" || *silverPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	space := kb.NewSpace()

	pred, err := loadPredictions(*predPath)
	if err != nil {
		fatal(err)
	}
	// Index corpus facts by subject, remembering each fact's source.
	type located struct {
		t   kb.Triple
		src string
	}
	bySubject := make(map[string][]located)
	if err := eachTSV(*factsPath, func(parts []string) error {
		if len(parts) < 3 {
			return fmt.Errorf("want ≥3 fields, got %d", len(parts))
		}
		url := ""
		if len(parts) > 4 {
			url = parts[4]
		}
		bySubject[parts[0]] = append(bySubject[parts[0]], located{
			t:   space.Intern(parts[0], parts[1], parts[2]),
			src: source.Normalize(url),
		})
		return nil
	}); err != nil {
		fatal(err)
	}

	// Predicted fact sets: facts of the slice's entities located at or
	// under the slice's source.
	predSets := make([][]kb.Triple, len(pred.Slices))
	for i, s := range pred.Slices {
		var set []kb.Triple
		for _, e := range s.Entities {
			for _, loc := range bySubject[e] {
				if loc.src == s.Source || strings.HasPrefix(loc.src, s.Source+"/") {
					set = append(set, loc.t)
				}
			}
		}
		sortTriples(set)
		predSets[i] = set
	}

	// Silver fact sets, grouped by slice index.
	type silverSlice struct {
		desc  string
		facts []kb.Triple
	}
	silverByIdx := make(map[string]*silverSlice)
	var silverOrder []string
	if err := eachTSV(*silverPath, func(parts []string) error {
		if len(parts) != 6 {
			return fmt.Errorf("want 6 fields, got %d", len(parts))
		}
		key := parts[0]
		ss, ok := silverByIdx[key]
		if !ok {
			ss = &silverSlice{desc: parts[2] + " @ " + parts[1]}
			silverByIdx[key] = ss
			silverOrder = append(silverOrder, key)
		}
		ss.facts = append(ss.facts, space.Intern(parts[3], parts[4], parts[5]))
		return nil
	}); err != nil {
		fatal(err)
	}
	silverSets := make([][]kb.Triple, len(silverOrder))
	silverDescs := make([]string, len(silverOrder))
	for i, key := range silverOrder {
		sortTriples(silverByIdx[key].facts)
		silverSets[i] = silverByIdx[key].facts
		silverDescs[i] = silverByIdx[key].desc
	}

	// Score, reporting the evaluation's own counters into the obs
	// registry so long-running curation loops that shell out to
	// midas-eval per iteration leave a metrics trail (-stats below).
	reg := obs.Default()
	scoreStart := time.Now()
	matches := eval.MatchSilver(predSets, silverSets)
	score := eval.Score(predSets, silverSets)
	reg.Timer("eval/score").Observe(time.Since(scoreStart))
	reg.Counter("eval/evaluations").Inc()
	reg.Counter("eval/predicted_slices").Add(int64(score.Predicted))
	reg.Counter("eval/silver_slices").Add(int64(score.Expected))
	reg.Counter("eval/matched_slices").Add(int64(score.TruePos))
	reg.Gauge("eval/precision").Set(score.Precision)
	reg.Gauge("eval/recall").Set(score.Recall)
	reg.Gauge("eval/f1").Set(score.F1)
	if *verbose {
		for i, m := range matches {
			label := "NO MATCH"
			if m >= 0 {
				label = silverDescs[m]
			}
			fmt.Printf("pred %3d (%s, %d facts) → %s\n", i, pred.Slices[i].Source, len(predSets[i]), label)
		}
	}
	fmt.Printf("predicted %d slices, silver %d slices\n", score.Predicted, score.Expected)
	fmt.Printf("precision %.3f  recall %.3f  f-measure %.3f  (matched %d)\n",
		score.Precision, score.Recall, score.F1, score.TruePos)
	if *statsPath != "" {
		if err := reg.WriteFile(*statsPath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote metrics snapshot to %s\n", *statsPath)
	}
}

func loadPredictions(path string) (*prediction, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var p prediction
	if err := json.NewDecoder(f).Decode(&p); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &p, nil
}

func eachTSV(path string, fn func(parts []string) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if err := fn(strings.Split(text, "\t")); err != nil {
			return fmt.Errorf("%s:%d: %w", path, line, err)
		}
	}
	return sc.Err()
}

func sortTriples(ts []kb.Triple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "midas-eval:", err)
	os.Exit(1)
}
