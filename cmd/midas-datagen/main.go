// Command midas-datagen emits the evaluation datasets as files:
// facts.tsv (subject, predicate, object, confidence, url), kb.tsv
// (the existing knowledge base), and silver.tsv (the expected slices:
// source, description, fact count).
//
// Usage:
//
//	midas-datagen -dataset reverb-slim -out ./data [-seed 7] [-scale 1]
//
// Datasets: synthetic, reverb-slim, nell-slim, reverb, nell, kv.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"midas/internal/datagen"
	"midas/internal/fact"
	"midas/internal/kb"
	"midas/internal/rdf"
)

func main() {
	var (
		dataset = flag.String("dataset", "reverb-slim", "synthetic | reverb-slim | nell-slim | reverb | nell | kv")
		out     = flag.String("out", ".", "output directory")
		seed    = flag.Int64("seed", 7, "generator seed")
		scale   = flag.Float64("scale", 0.5, "size multiplier for the full corpora")
		facts   = flag.Int("facts", 5000, "fact count for the synthetic dataset")
		optimal = flag.Int("optimal", 10, "optimal slice count for the synthetic dataset")
		format  = flag.String("format", "tsv", "output format: tsv | binary | ntriples")
	)
	flag.Parse()

	var corpus *fact.Corpus
	var existing *kb.KB
	var silver []datagen.GroundSlice

	switch *dataset {
	case "synthetic":
		p := datagen.DefaultSyntheticParams()
		p.Facts = *facts
		p.Optimal = *optimal
		p.Seed = *seed
		syn := datagen.NewSynthetic(p)
		corpus, existing, silver = syn.Corpus, syn.KB, syn.Optimal
	case "reverb-slim":
		w := datagen.ReVerbSlim(datagen.DefaultSlimParams(*seed))
		corpus, existing, silver = w.Corpus, w.KB, w.Silver
	case "nell-slim":
		w := datagen.NELLSlim(datagen.DefaultSlimParams(*seed))
		corpus, existing, silver = w.Corpus, w.KB, w.Silver
	case "reverb":
		w := datagen.ReVerbLike(datagen.FullParams{Scale: *scale, Seed: *seed})
		corpus, existing, silver = w.Corpus, w.KB, w.Silver
	case "nell":
		w := datagen.NELLLike(datagen.FullParams{Scale: *scale, Seed: *seed})
		corpus, existing, silver = w.Corpus, w.KB, w.Silver
	case "kv":
		w := datagen.KnowledgeVaultSim(*seed)
		corpus, existing, silver = w.Corpus, w.KB, w.Silver
	default:
		fmt.Fprintf(os.Stderr, "midas-datagen: unknown dataset %q\n", *dataset)
		os.Exit(2)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	if *format == "ntriples" {
		if err := writeFile(filepath.Join(*out, "facts.nq"), func(w io.Writer) error {
			return rdf.SaveCorpus(w, corpus)
		}); err != nil {
			fatal(err)
		}
		if err := writeFile(filepath.Join(*out, "kb.nt"), func(w io.Writer) error {
			return rdf.SaveKB(w, existing)
		}); err != nil {
			fatal(err)
		}
	} else if *format == "binary" {
		if err := writeFile(filepath.Join(*out, "facts.bin"), corpus.WriteBinary); err != nil {
			fatal(err)
		}
		if err := writeFile(filepath.Join(*out, "kb.bin"), existing.WriteBinary); err != nil {
			fatal(err)
		}
	} else {
		if err := writeFacts(filepath.Join(*out, "facts.tsv"), corpus); err != nil {
			fatal(err)
		}
		if err := writeKB(filepath.Join(*out, "kb.tsv"), existing); err != nil {
			fatal(err)
		}
	}
	if err := writeSilver(filepath.Join(*out, "silver.tsv"), silver); err != nil {
		fatal(err)
	}
	if err := writeSilverFacts(filepath.Join(*out, "silver-facts.tsv"), corpus, silver); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d facts, %d KB facts, %d silver slices to %s\n",
		len(corpus.Facts), existing.Size(), len(silver), *out)
}

func writeFacts(path string, corpus *fact.Corpus) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, e := range corpus.Facts {
		s, p, o := corpus.Space.StringTriple(e.Triple)
		fmt.Fprintf(w, "%s\t%s\t%s\t%.3f\t%s\n", s, p, o, e.Conf, corpus.URLs.String(e.URL))
	}
	return w.Flush()
}

func writeKB(path string, existing *kb.KB) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return existing.WriteTSV(f)
}

func writeSilver(path string, silver []datagen.GroundSlice) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, gs := range silver {
		fmt.Fprintf(w, "%s\t%s\t%d\n", gs.Source, gs.Description, len(gs.Facts))
	}
	return w.Flush()
}

// writeSilverFacts emits the silver slices' fact sets, one fact per
// line: slice index, source, description, subject, predicate, object.
// midas-eval reconstructs the silver fact sets from this file.
func writeSilverFacts(path string, corpus *fact.Corpus, silver []datagen.GroundSlice) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for i, gs := range silver {
		for _, t := range gs.Facts {
			s, p, o := corpus.Space.StringTriple(t)
			fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s\t%s\n", i, gs.Source, gs.Description, s, p, o)
		}
	}
	return w.Flush()
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "midas-datagen:", err)
	os.Exit(1)
}
