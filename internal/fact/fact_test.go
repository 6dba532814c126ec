package fact_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"midas/internal/fact"
	"midas/internal/kb"
)

func TestPropertyPacking(t *testing.T) {
	p := fact.Prop(7, 42)
	if p.Pred() != 7 || p.Value() != 42 {
		t.Errorf("unpack = (%d, %d)", p.Pred(), p.Value())
	}
	// Ordering: predicate major, value minor.
	if !(fact.Prop(1, 99) < fact.Prop(2, 0)) {
		t.Error("predicate should dominate ordering")
	}
	if !(fact.Prop(1, 1) < fact.Prop(1, 2)) {
		t.Error("value should break ties")
	}
}

func TestPropertyPackingQuick(t *testing.T) {
	f := func(pred, val int32) bool {
		if pred < 0 || val < 0 {
			return true // IDs are non-negative by construction
		}
		p := fact.Prop(pred, val)
		return p.Pred() == pred && p.Value() == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyFormat(t *testing.T) {
	sp := kb.NewSpace()
	tr := sp.Intern("s", "sponsor", "NASA")
	p := fact.Prop(tr.P, tr.O)
	if got := p.Format(sp); got != "sponsor = NASA" {
		t.Errorf("Format = %q", got)
	}
}

func buildTable(t *testing.T) (*fact.Table, *kb.Space) {
	t.Helper()
	sp := kb.NewSpace()
	existing := kb.New(sp)
	existing.AddStrings("e1", "p1", "v1")
	triples := []kb.Triple{
		sp.Intern("e1", "p1", "v1"), // known
		sp.Intern("e1", "p2", "v2"), // new
		sp.Intern("e1", "p2", "v3"), // new, multi-valued cell
		sp.Intern("e2", "p1", "v1"), // new
		sp.Intern("e1", "p1", "v1"), // duplicate extraction
	}
	return fact.Build("src", sp, triples, existing), sp
}

func TestBuildTable(t *testing.T) {
	table, sp := buildTable(t)
	if table.NumEntities() != 2 {
		t.Fatalf("entities = %d, want 2", table.NumEntities())
	}
	if table.TotalFacts != 4 {
		t.Errorf("total facts = %d, want 4 (duplicate collapsed)", table.TotalFacts)
	}
	if table.TotalNew != 3 {
		t.Errorf("new facts = %d, want 3", table.TotalNew)
	}
	if table.NumPredicates() != 2 {
		t.Errorf("predicates = %d, want 2", table.NumPredicates())
	}
	if got := len(table.Properties()); got != 3 {
		t.Errorf("distinct properties = %d, want 3", got)
	}
	// Row e1: 3 facts, 2 new; props sorted.
	e1 := table.Entities[0]
	if sp.Subjects.String(e1.Subject) != "e1" {
		t.Fatalf("first row = %q (rows must be subject-sorted)", sp.Subjects.String(e1.Subject))
	}
	if e1.Facts() != 3 || e1.NewCount != 2 {
		t.Errorf("e1 facts/new = %d/%d, want 3/2", e1.Facts(), e1.NewCount)
	}
	for i := 1; i < len(e1.Props); i++ {
		if e1.Props[i] <= e1.Props[i-1] {
			t.Error("props unsorted or duplicated")
		}
	}
	if !e1.HasProp(fact.Prop(sp.Predicates.Lookup("p2"), sp.Objects.Lookup("v3"))) {
		t.Error("HasProp missed an existing property")
	}
	if e1.HasProp(fact.Prop(sp.Predicates.Lookup("p2"), sp.Objects.Lookup("v1"))) {
		t.Error("HasProp invented a property")
	}
}

func TestBuildNilKB(t *testing.T) {
	sp := kb.NewSpace()
	triples := []kb.Triple{sp.Intern("e", "p", "v")}
	table := fact.Build("src", sp, triples, nil)
	if table.TotalNew != 1 {
		t.Errorf("with nil KB everything is new; got %d", table.TotalNew)
	}
}

func TestMerge(t *testing.T) {
	sp := kb.NewSpace()
	existing := kb.New(sp)
	existing.AddStrings("shared", "p", "v")

	t1 := fact.Build("src/a", sp, []kb.Triple{
		sp.Intern("shared", "p", "v"),
		sp.Intern("shared", "q", "w"),
		sp.Intern("only-a", "p", "v"),
	}, existing)
	t2 := fact.Build("src/b", sp, []kb.Triple{
		sp.Intern("shared", "p", "v"), // same fact appears in both children
		sp.Intern("only-b", "r", "x"),
	}, existing)

	m := fact.Merge("src", sp, []*fact.Table{t1, t2})
	if m.NumEntities() != 3 {
		t.Fatalf("entities = %d, want 3", m.NumEntities())
	}
	if m.TotalFacts != 4 {
		t.Errorf("facts = %d, want 4 (shared fact deduplicated)", m.TotalFacts)
	}
	if m.TotalNew != 3 {
		t.Errorf("new = %d, want 3", m.TotalNew)
	}
	if m.Source != "src" {
		t.Errorf("source = %q", m.Source)
	}
}

// TestMergeEquivalentToFlatBuild property: merging child tables equals
// building one table from the concatenated triples.
func TestMergeEquivalentToFlatBuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sp := kb.NewSpace()
		existing := kb.New(sp)
		var all []kb.Triple
		var tables []*fact.Table
		for c := 0; c < 3; c++ {
			var ts []kb.Triple
			for i := 0; i < 30; i++ {
				tr := sp.Intern(
					fmt.Sprintf("s%d", rng.Intn(12)),
					fmt.Sprintf("p%d", rng.Intn(4)),
					fmt.Sprintf("o%d", rng.Intn(10)))
				if rng.Float64() < 0.3 {
					existing.Add(tr)
				}
				ts = append(ts, tr)
				all = append(all, tr)
			}
			tables = append(tables, fact.Build(fmt.Sprintf("src/c%d", c), sp, ts, existing))
		}
		// Rebuild the children against the final KB so newness masks
		// agree, then merge.
		for c := range tables {
			tables[c] = fact.Build(tables[c].Source, sp, trianglesOf(tables[c]), existing)
		}
		merged := fact.Merge("src", sp, tables)
		flat := fact.Build("src", sp, all, existing)
		if merged.TotalFacts != flat.TotalFacts || merged.TotalNew != flat.TotalNew ||
			merged.NumEntities() != flat.NumEntities() {
			return false
		}
		for i := range flat.Entities {
			a, b := merged.Entities[i], flat.Entities[i]
			if a.Subject != b.Subject || a.Facts() != b.Facts() || a.NewCount != b.NewCount {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// trianglesOf reconstructs a table's triples.
func trianglesOf(t *fact.Table) []kb.Triple {
	var out []kb.Triple
	for i := range t.Entities {
		e := &t.Entities[i]
		for _, p := range e.Props {
			out = append(out, kb.Triple{S: e.Subject, P: p.Pred(), O: p.Value()})
		}
	}
	return out
}

func TestCorpusConfidenceFilter(t *testing.T) {
	c := fact.NewCorpus(nil)
	c.Add(fact.Fact{Subject: "a", Predicate: "p", Object: "x", Confidence: 0.9, URL: "u1"})
	c.Add(fact.Fact{Subject: "b", Predicate: "p", Object: "y", Confidence: 0.7, URL: "u1"})
	c.Add(fact.Fact{Subject: "c", Predicate: "p", Object: "z", Confidence: 0.71, URL: "u2"})
	kept := c.FilterConfidence(0.7)
	if len(kept.Facts) != 2 {
		t.Errorf("kept %d facts, want 2 (strictly above threshold)", len(kept.Facts))
	}
	if c.NumURLs() != 2 {
		t.Errorf("URLs = %d, want 2", c.NumURLs())
	}
}
