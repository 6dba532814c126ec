// Command midas-kb is a knowledge-base utility: convert between the
// supported persistence formats, print statistics, diff two KBs, and
// merge several into one.
//
// Formats are chosen by file extension: .tsv (tab-separated), .bin
// (compact binary), .nt/.nq (W3C N-Triples).
//
// Usage:
//
//	midas-kb convert -in kb.tsv -out kb.bin
//	midas-kb stats   -in kb.nt
//	midas-kb diff    -a old.tsv -b new.tsv
//	midas-kb merge   -out all.bin base.tsv extra.nt more.bin
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"midas/internal/kb"
	"midas/internal/rdf"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "convert":
		fs := flag.NewFlagSet("convert", flag.ExitOnError)
		in := fs.String("in", "", "input KB file (required)")
		out := fs.String("out", "", "output KB file (required)")
		fs.Parse(os.Args[2:])
		if *in == "" || *out == "" {
			fs.Usage()
			os.Exit(2)
		}
		k := kb.New(nil)
		n, err := loadInto(k, *in)
		check(err)
		check(saveAs(k, *out))
		fmt.Printf("converted %d facts: %s → %s\n", n, *in, *out)

	case "stats":
		fs := flag.NewFlagSet("stats", flag.ExitOnError)
		in := fs.String("in", "", "input KB file (required)")
		top := fs.Int("top", 10, "show the most frequent predicates")
		fs.Parse(os.Args[2:])
		if *in == "" {
			fs.Usage()
			os.Exit(2)
		}
		k := kb.New(nil)
		_, err := loadInto(k, *in)
		check(err)
		printStats(k, *top)

	case "diff":
		fs := flag.NewFlagSet("diff", flag.ExitOnError)
		a := fs.String("a", "", "first KB (required)")
		b := fs.String("b", "", "second KB (required)")
		show := fs.Int("show", 5, "sample size of differing facts to print")
		fs.Parse(os.Args[2:])
		if *a == "" || *b == "" {
			fs.Usage()
			os.Exit(2)
		}
		check(diff(*a, *b, *show))

	case "merge":
		fs := flag.NewFlagSet("merge", flag.ExitOnError)
		out := fs.String("out", "", "output KB file (required)")
		fs.Parse(os.Args[2:])
		if *out == "" || fs.NArg() == 0 {
			fs.Usage()
			os.Exit(2)
		}
		k := kb.New(nil)
		total := 0
		for _, in := range fs.Args() {
			n, err := loadInto(k, in)
			check(err)
			fmt.Printf("  %s: %d new facts\n", in, n)
			total += n
		}
		check(saveAs(k, *out))
		fmt.Printf("merged %d facts from %d files into %s\n", k.Size(), fs.NArg(), *out)
		_ = total

	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: midas-kb {convert|stats|diff|merge} [flags]  (see -h per subcommand)")
	os.Exit(2)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "midas-kb:", err)
		os.Exit(1)
	}
}

// loadInto reads a KB file in the format implied by its extension.
func loadInto(k *kb.KB, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".bin"):
		return k.ReadBinary(f)
	case strings.HasSuffix(path, ".nt"), strings.HasSuffix(path, ".nq"):
		return rdf.LoadKB(f, k)
	default:
		return k.ReadTSV(f)
	}
}

// saveAs writes a KB file in the format implied by its extension.
func saveAs(k *kb.KB, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var werr error
	switch {
	case strings.HasSuffix(path, ".bin"):
		werr = k.WriteBinary(f)
	case strings.HasSuffix(path, ".nt"), strings.HasSuffix(path, ".nq"):
		werr = rdf.SaveKB(f, k)
	default:
		werr = k.WriteTSV(f)
	}
	if werr != nil {
		f.Close()
		return werr
	}
	return f.Close()
}

func printStats(k *kb.KB, top int) {
	fmt.Printf("facts:      %d\n", k.Size())
	fmt.Printf("subjects:   %d\n", k.NumSubjects())
	fmt.Printf("predicates: %d\n", k.NumPredicates())
	type pc struct {
		name  string
		count int
	}
	preds := make([]pc, 0, k.NumPredicates())
	for _, p := range k.Predicates() {
		preds = append(preds, pc{k.Space().Predicates.String(p), k.PredicateCount(p)})
	}
	sort.Slice(preds, func(i, j int) bool {
		if preds[i].count != preds[j].count {
			return preds[i].count > preds[j].count
		}
		return preds[i].name < preds[j].name
	})
	if top > len(preds) {
		top = len(preds)
	}
	fmt.Printf("top predicates:\n")
	for _, p := range preds[:top] {
		fmt.Printf("  %8d  %s\n", p.count, p.name)
	}
}

func diff(pathA, pathB string, show int) error {
	// Share one space so triples compare by ID.
	space := kb.NewSpace()
	a, b := kb.New(space), kb.New(space)
	if _, err := loadInto(a, pathA); err != nil {
		return err
	}
	if _, err := loadInto(b, pathB); err != nil {
		return err
	}
	onlyA, onlyB, common := 0, 0, 0
	var sampleA, sampleB []string
	for _, t := range a.Triples() {
		if b.Contains(t) {
			common++
		} else {
			onlyA++
			if len(sampleA) < show {
				s, p, o := space.StringTriple(t)
				sampleA = append(sampleA, fmt.Sprintf("%s | %s | %s", s, p, o))
			}
		}
	}
	for _, t := range b.Triples() {
		if !a.Contains(t) {
			onlyB++
			if len(sampleB) < show {
				s, p, o := space.StringTriple(t)
				sampleB = append(sampleB, fmt.Sprintf("%s | %s | %s", s, p, o))
			}
		}
	}
	fmt.Printf("common: %d\nonly in %s: %d\nonly in %s: %d\n", common, pathA, onlyA, pathB, onlyB)
	for _, s := range sampleA {
		fmt.Printf("  - %s\n", s)
	}
	for _, s := range sampleB {
		fmt.Printf("  + %s\n", s)
	}
	return nil
}
