package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"midas"
	"midas/internal/datagen"
	"midas/internal/source"
)

// layoutSeed fixes the ReVerb-Slim domain layout (how many verticals,
// entities and pages each domain has). The workload seed draws the
// facts inside that layout, so every seed does the same amount of work
// and run-to-run spread measures the program, not the input size.
const layoutSeed = 7

// holdbackShare is the fraction of pages (leaf sources) held back from
// the primed corpus and fed one page per round by the incremental
// workloads.
const holdbackShare = 0.2

// dataset is the generated input of one workload: the extraction output
// and the existing KB, as the strings a user of the library holds.
type dataset struct {
	facts []midas.Fact
	kb    [][3]string
	// primed is facts minus the held-back pages, in corpus order.
	primed []midas.Fact
	// held lists the held-back pages in the seeded order the rounds
	// consume them; each page keeps its facts in corpus order.
	held [][]midas.Fact
	// pages is every page of facts in corpus order (batch replays them).
	pages [][]midas.Fact
}

// generate builds the ReVerb-Slim analog over the fixed layout with
// domains web domains (100 is the paper's Slim size), drawing its facts
// and the held-back pages from seed.
func generate(domains int, seed int64) *dataset {
	layout := datagen.ReVerbSlim(datagen.SlimParams{Domains: domains, GoodDomains: domains / 2, Seed: layoutSeed})
	w := datagen.Generate(layout.Domains, datagen.WorldParams{Style: datagen.OpenIE, Seed: seed})
	ds := &dataset{}
	for _, e := range w.Corpus.Facts {
		s, p, o := w.Corpus.Space.StringTriple(e.Triple)
		ds.facts = append(ds.facts, midas.Fact{
			Subject: s, Predicate: p, Object: o,
			Confidence: float64(e.Conf),
			URL:        w.Corpus.URLs.String(e.URL),
		})
	}
	space := w.KB.Space()
	for _, t := range w.KB.Triples() {
		s, p, o := space.StringTriple(t)
		ds.kb = append(ds.kb, [3]string{s, p, o})
	}

	index := map[string]int{}
	pageOf := make([]int, len(ds.facts))
	for i, f := range ds.facts {
		src := source.Normalize(f.URL)
		k, ok := index[src]
		if !ok {
			k = len(ds.pages)
			index[src] = k
			ds.pages = append(ds.pages, nil)
		}
		ds.pages[k] = append(ds.pages[k], f)
		pageOf[i] = k
	}
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(ds.pages))[:int(float64(len(ds.pages))*holdbackShare)]
	isHeld := make([]bool, len(ds.pages))
	for _, k := range order {
		isHeld[k] = true
		ds.held = append(ds.held, ds.pages[k])
	}
	for i, f := range ds.facts {
		if !isHeld[pageOf[i]] {
			ds.primed = append(ds.primed, f)
		}
	}
	return ds
}

// newKB loads the dataset's existing KB through the public API.
func (ds *dataset) newKB() *midas.KB {
	k := midas.NewKB()
	for _, t := range ds.kb {
		k.Add(t[0], t[1], t[2])
	}
	return k
}

// kbTSV renders the existing KB in the TSV layout KB loads accept.
func (ds *dataset) kbTSV() []byte {
	var b bytes.Buffer
	ds.newKB().SaveTSV(&b) // writes to a bytes.Buffer cannot fail
	return b.Bytes()
}

// factsTSV renders facts in the layout the facts endpoint accepts.
// Confidences are printed with full precision so the served session
// holds exactly the values a mirror session is fed.
func factsTSV(facts []midas.Fact) []byte {
	var b strings.Builder
	for _, f := range facts {
		b.WriteString(f.Subject)
		b.WriteByte('\t')
		b.WriteString(f.Predicate)
		b.WriteByte('\t')
		b.WriteString(f.Object)
		b.WriteByte('\t')
		b.WriteString(strconv.FormatFloat(f.Confidence, 'g', -1, 64))
		b.WriteByte('\t')
		b.WriteString(f.URL)
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

type wireFact struct {
	Subject    string  `json:"subject"`
	Predicate  string  `json:"predicate"`
	Object     string  `json:"object"`
	Confidence float64 `json:"confidence"`
	URL        string  `json:"url"`
}

func factsJSON(facts []midas.Fact) []byte {
	out := make([]wireFact, len(facts))
	for i, f := range facts {
		out[i] = wireFact{f.Subject, f.Predicate, f.Object, f.Confidence, f.URL}
	}
	b, _ := json.Marshal(out) // strings and finite floats always marshal
	return b
}

// wireSlice is a slice in the shape the service's job result carries.
// In-process workloads encode results in the same shape, so
// result_get_s times the same encoding on every workload.
type wireSlice struct {
	Source      string         `json:"source"`
	Description string         `json:"description"`
	Properties  []wireProperty `json:"properties"`
	Entities    []string       `json:"entities"`
	Facts       int            `json:"facts"`
	NewFacts    int            `json:"new_facts"`
	Profit      float64        `json:"profit"`
}

type wireProperty struct {
	Predicate string `json:"predicate"`
	Value     string `json:"value"`
}

type wireResult struct {
	Fingerprint string      `json:"fingerprint"`
	Slices      []wireSlice `json:"slices"`
}

func toWire(res *midas.Result) wireResult {
	out := wireResult{
		Fingerprint: fmt.Sprintf("%016x", res.Fingerprint),
		Slices:      make([]wireSlice, len(res.Slices)),
	}
	for i, sl := range res.Slices {
		props := make([]wireProperty, len(sl.Properties))
		for k, p := range sl.Properties {
			props[k] = wireProperty{p.Predicate, p.Value}
		}
		out.Slices[i] = wireSlice{
			Source: sl.Source, Description: sl.Description, Properties: props,
			Entities: sl.Entities, Facts: sl.Facts, NewFacts: sl.NewFacts, Profit: sl.Profit,
		}
	}
	return out
}

// digest hashes what makes two discovery results equal: per slice the
// source, properties, entities, fact counts and the exact profit bits,
// in result order.
func digest(slices []wireSlice) uint64 {
	h := fnv.New64a()
	var num [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(num[:], v)
		h.Write(num[:])
	}
	str := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	put(uint64(len(slices)))
	for _, sl := range slices {
		str(sl.Source)
		put(uint64(len(sl.Properties)))
		for _, p := range sl.Properties {
			str(p.Predicate)
			str(p.Value)
		}
		put(uint64(len(sl.Entities)))
		for _, e := range sl.Entities {
			str(e)
		}
		put(uint64(sl.Facts))
		put(uint64(sl.NewFacts))
		put(math.Float64bits(sl.Profit))
	}
	return h.Sum64()
}

func resultDigest(res *midas.Result) uint64 { return digest(toWire(res).Slices) }

// corrupt is the canary: it perturbs a result on the benchmark's side
// so the correctness gate must reject it.
func corrupt(slices []wireSlice) []wireSlice {
	if len(slices) == 0 {
		return []wireSlice{{Source: "canary"}}
	}
	out := append([]wireSlice(nil), slices...)
	out[0].Profit = math.Nextafter(out[0].Profit, math.Inf(1))
	return out
}

// toSlice rebuilds the parts of a slice that Session.Absorb reads.
func (w wireSlice) toSlice() midas.Slice {
	return midas.Slice{Source: w.Source, Entities: w.Entities}
}
