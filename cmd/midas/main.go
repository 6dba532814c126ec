// Command midas runs web-source slice discovery over a fact file.
//
// Input facts are tab-separated lines:
//
//	subject <TAB> predicate <TAB> object <TAB> confidence <TAB> url
//
// (confidence and url optional; missing confidence defaults to 1.0,
// missing url groups everything as one source), or W3C N-Quads when the
// file ends in .nq/.nt (the graph term is the page URL). The existing
// knowledge base, if any, is a TSV of subject/predicate/object lines, a
// .bin file from midas-datagen, or N-Triples (.nt).
//
// Usage:
//
//	midas -facts extractions.tsv [-kb existing.tsv] [-top 20]
//	      [-min-conf 0.7] [-fp 10 -fc 0.001 -fd 0.01 -fv 0.1]
//	      [-stats run-stats.json] [-listen localhost:9090]
//	      [-trace run-trace.json] [-pprof localhost:6060]
//
// -listen serves live telemetry while the run is in flight: /metrics
// (OpenMetrics text for any Prometheus-compatible scraper), /debug/vars
// (expvar JSON), and /debug/pprof. -trace records spans for every
// pipeline phase and writes Chrome trace-event JSON on exit — load it
// in Perfetto (ui.perfetto.dev) or chrome://tracing.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"midas"
)

func main() {
	var (
		factsPath = flag.String("facts", "", "TSV file of extracted facts (required)")
		kbPath    = flag.String("kb", "", "TSV file of existing knowledge-base facts")
		top       = flag.Int("top", 20, "number of slices to report (0 = all)")
		minConf   = flag.Float64("min-conf", 0.7, "drop extractions at or below this confidence")
		fp        = flag.Float64("fp", 10, "per-slice training cost")
		fc        = flag.Float64("fc", 0.001, "per-fact crawling cost")
		fd        = flag.Float64("fd", 0.01, "per-fact de-duplication cost")
		fv        = flag.Float64("fv", 0.1, "per-new-fact validation cost")
		workers   = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		entities  = flag.Bool("entities", false, "list each slice's entities")
		jsonOut   = flag.Bool("json", false, "emit the result as JSON (machine-readable, for midas-eval)")
		report    = flag.String("report", "", "write a report file (.md or .csv by extension)")
		budget    = flag.Int("budget", 0, "keep at most this many slices (0 = all)")
		statsPath = flag.String("stats", "", "write a JSON metrics snapshot (phase timings, pruning counters) to this file")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		listen    = flag.String("listen", "", "serve live telemetry (/metrics, /debug/vars, /debug/pprof) on this address (e.g. localhost:9090)")
		tracePath = flag.String("trace", "", "write a Chrome trace-event JSON of the run's spans to this file (load in Perfetto)")
	)
	flag.Parse()
	if *factsPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	servePprof(*pprofAddr)
	if *listen != "" {
		addr, err := midas.DefaultMetrics().Serve(*listen)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "serving live telemetry on http://%s/metrics\n", addr)
	}
	var tracer *midas.Tracer
	if *tracePath != "" {
		tracer = midas.NewTracer()
	}

	existing := midas.NewKB()
	if *kbPath != "" {
		f, err := os.Open(*kbPath)
		if err != nil {
			fatal(err)
		}
		var n int
		switch {
		case strings.HasSuffix(*kbPath, ".bin"):
			n, err = existing.LoadBinary(f)
		case strings.HasSuffix(*kbPath, ".nt") || strings.HasSuffix(*kbPath, ".nq"):
			n, err = existing.LoadNTriples(f)
		default:
			n, err = existing.LoadTSV(f)
		}
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loaded %d KB facts from %s\n", n, *kbPath)
	}

	corpus := midas.NewCorpus(existing)
	switch {
	case strings.HasSuffix(*factsPath, ".nq") || strings.HasSuffix(*factsPath, ".nt"):
		f, err := os.Open(*factsPath)
		if err != nil {
			fatal(err)
		}
		_, err = corpus.LoadNQuads(f, 1.0)
		f.Close()
		if err != nil {
			fatal(err)
		}
	case strings.HasSuffix(*factsPath, ".bin"):
		f, err := os.Open(*factsPath)
		if err != nil {
			fatal(err)
		}
		_, err = corpus.LoadBinary(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	default:
		if err := loadFacts(corpus, *factsPath); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "loaded %d extracted facts from %s\n", corpus.Len(), *factsPath)

	res := midas.Discover(corpus, existing, &midas.Options{
		Cost:          midas.CostModel{Fp: *fp, Fc: *fc, Fd: *fd, Fv: *fv},
		Workers:       *workers,
		MinConfidence: *minConf,
		MaxSlices:     *budget,
		Trace:         tracer,
	})
	fmt.Fprintf(os.Stderr, "processed %d sources in %d rounds; %d slices\n",
		res.SourcesProcessed, res.Rounds, len(res.Slices))

	if *statsPath != "" {
		if err := midas.DefaultMetrics().WriteFile(*statsPath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote metrics snapshot to %s\n", *statsPath)
	}
	if tracer != nil {
		if err := tracer.WriteFile(*tracePath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote Chrome trace to %s\n", *tracePath)
	}

	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fatal(err)
		}
		if strings.HasSuffix(*report, ".csv") {
			err = res.WriteCSVReport(f)
		} else {
			err = res.WriteMarkdownReport(f, 20)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote report to %s\n", *report)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "#\tProfit\tNew\tFacts\tSource\tSlice")
	for i, s := range res.Slices {
		if *top > 0 && i >= *top {
			break
		}
		fmt.Fprintf(tw, "%d\t%.1f\t%d\t%d\t%s\t%s\n", i+1, s.Profit, s.NewFacts, s.Facts, s.Source, s.Description)
		if *entities {
			fmt.Fprintf(tw, "\t\t\t\t\tentities: %s\n", strings.Join(s.Entities, ", "))
		}
	}
	tw.Flush()
}

func loadFacts(corpus *midas.Corpus, path string) error {
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
		parts := strings.Split(text, "\t")
		if len(parts) < 3 {
			return fmt.Errorf("%s:%d: want ≥3 tab-separated fields, got %d", path, line, len(parts))
		}
		fact := midas.Fact{Subject: parts[0], Predicate: parts[1], Object: parts[2], Confidence: 1}
		if len(parts) > 3 && parts[3] != "" {
			c, err := strconv.ParseFloat(parts[3], 64)
			if err != nil {
				return fmt.Errorf("%s:%d: bad confidence %q", path, line, parts[3])
			}
			fact.Confidence = c
		}
		if len(parts) > 4 {
			fact.URL = parts[4]
		}
		corpus.Add(fact)
	}
	return sc.Err()
}

// servePprof exposes net/http/pprof on addr (no-op when addr is empty)
// so long discovery runs can be profiled live.
func servePprof(addr string) {
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "midas: pprof:", err)
		}
	}()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "midas:", err)
	os.Exit(1)
}
