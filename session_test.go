package midas_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"midas"
)

func sessionCorpusFacts() []midas.Fact {
	var facts []midas.Fact
	for v := 0; v < 3; v++ {
		for i := 0; i < 25; i++ {
			url := fmt.Sprintf("http://site%d.example.com/wiki/e%d.htm", v, i)
			subj := fmt.Sprintf("v%d entity %d", v, i)
			facts = append(facts,
				midas.Fact{Subject: subj, Predicate: "kind", Object: fmt.Sprintf("type%d", v), Confidence: 0.9, URL: url},
				midas.Fact{Subject: subj, Predicate: "id", Object: fmt.Sprintf("id-%d-%d", v, i), Confidence: 0.9, URL: url},
			)
		}
	}
	return facts
}

// TestSessionAugmentationLoop: absorbing the top slice each round makes
// the recommendations move on and eventually dry up. Progress, which
// the session answers from running counters, must equal a from-scratch
// count after every kind of mutation.
func TestSessionAugmentationLoop(t *testing.T) {
	sess := midas.NewSession(nil, nil)
	facts := sessionCorpusFacts()
	sess.AddFacts(facts...)
	if sess.CorpusSize() != 150 {
		t.Fatalf("corpus = %d", sess.CorpusSize())
	}
	// checkProgress compares Progress with a count over the distinct
	// string triples of every fact added so far.
	checkProgress := func(label string) {
		t.Helper()
		distinct := make(map[[3]string]bool)
		covered := 0
		for _, f := range facts {
			k := [3]string{f.Subject, f.Predicate, f.Object}
			if distinct[k] {
				continue
			}
			distinct[k] = true
			if sess.KB().Contains(f.Subject, f.Predicate, f.Object) {
				covered++
			}
		}
		kbFacts, got := sess.Progress()
		want := float64(covered) / float64(len(distinct))
		if kbFacts != sess.KB().Size() || got != want {
			t.Errorf("%s: Progress = (%d, %v), want (%d, %v)", label, kbFacts, got, sess.KB().Size(), want)
		}
	}
	checkProgress("loaded")

	seen := make(map[string]bool)
	rounds := 0
	for ; rounds < 10; rounds++ {
		res := sess.Discover()
		if len(res.Slices) == 0 {
			break
		}
		top := res.Slices[0]
		if seen[top.Description] {
			t.Fatalf("round %d recommended %q again after absorption", rounds, top.Description)
		}
		seen[top.Description] = true
		if added := sess.Absorb(top); added == 0 {
			t.Fatalf("absorb added nothing for %q", top.Description)
		}
		checkProgress(fmt.Sprintf("round %d", rounds))
	}
	if rounds != 3 {
		t.Errorf("loop ran %d rounds, want 3 (one per vertical)", rounds)
	}
	kbFacts, covered := sess.Progress()
	if kbFacts != 150 {
		t.Errorf("KB = %d facts, want all 150 absorbed", kbFacts)
	}
	if covered != 1.0 {
		t.Errorf("coverage = %.3f, want 1.0", covered)
	}

	// New facts, one of them a duplicate of a known triple on another
	// page, then KB writes outside Absorb: one of a corpus triple, one
	// of a triple the corpus lacks.
	more := []midas.Fact{
		{Subject: "late entity", Predicate: "kind", Object: "type9", Confidence: 0.9, URL: "http://late.example.com/a.htm"},
		{Subject: "late entity", Predicate: "id", Object: "id-late", Confidence: 0.9, URL: "http://late.example.com/a.htm"},
		{Subject: "late entity", Predicate: "kind", Object: "type9", Confidence: 0.9, URL: "http://late.example.com/b.htm"},
		{Subject: "v0 entity 0", Predicate: "kind", Object: "type0", Confidence: 0.9, URL: "http://late.example.com/c.htm"},
	}
	sess.AddFacts(more...)
	facts = append(facts, more...)
	checkProgress("facts added")
	sess.KB().Add("late entity", "kind", "type9")
	checkProgress("untracked corpus triple")
	sess.KB().Add("outside", "the", "corpus")
	checkProgress("untracked foreign triple")
}

// TestSessionAbsorbScopedToSource: absorbing a slice must not import
// facts about the same entities from other sources.
func TestSessionAbsorbScopedToSource(t *testing.T) {
	sess := midas.NewSession(nil, nil)
	var facts []midas.Fact
	for i := 0; i < 20; i++ {
		subj := fmt.Sprintf("e%d", i)
		facts = append(facts,
			midas.Fact{Subject: subj, Predicate: "kind", Object: "widget", Confidence: 0.9,
				URL: fmt.Sprintf("http://a.com/w/p%d.htm", i)},
			// Same entity also mentioned on another domain.
			midas.Fact{Subject: subj, Predicate: "seen at", Object: fmt.Sprintf("place %d", i), Confidence: 0.9,
				URL: fmt.Sprintf("http://b.org/mentions/m%d.htm", i)},
		)
	}
	sess.AddFacts(facts...)
	res := sess.Discover()
	if len(res.Slices) == 0 {
		t.Fatal("no slices")
	}
	var widget *midas.Slice
	for i := range res.Slices {
		if res.Slices[i].Description == "kind = widget" {
			widget = &res.Slices[i]
		}
	}
	if widget == nil {
		t.Fatal("widget slice missing")
	}
	added := sess.Absorb(*widget)
	if added != 20 {
		t.Errorf("absorbed %d facts, want only the 20 a.com facts", added)
	}
	if sess.KB().Contains("e0", "seen at", "place 0") {
		t.Error("absorb leaked a fact from the other domain")
	}
}

// TestSessionAddFactsBetweenRounds: new extraction output arriving
// mid-session is picked up by the next Discover and Absorb.
func TestSessionAddFactsBetweenRounds(t *testing.T) {
	sess := midas.NewSession(nil, nil)
	sess.AddFacts(sessionCorpusFacts()...)
	res := sess.Discover()
	before := len(res.Slices)

	var fresh []midas.Fact
	for i := 0; i < 30; i++ {
		fresh = append(fresh, midas.Fact{
			Subject: fmt.Sprintf("new entity %d", i), Predicate: "kind", Object: "newtype",
			Confidence: 0.9, URL: fmt.Sprintf("http://late.example.net/x/e%d.htm", i),
		})
	}
	sess.AddFacts(fresh...)
	res = sess.Discover()
	if len(res.Slices) != before+1 {
		t.Errorf("slices = %d, want %d", len(res.Slices), before+1)
	}
	for _, s := range res.Slices {
		if s.Description == "kind = newtype" {
			if got := sess.Absorb(s); got != 30 {
				t.Errorf("absorbed %d, want 30", got)
			}
			return
		}
	}
	t.Error("new vertical not discovered")
}

// TestSessionMetrics: a Session configured with an isolated Metrics
// leaves a per-iteration trail — discovery timers and counters, KB and
// coverage gauges — scrapeable as OpenMetrics.
func TestSessionMetrics(t *testing.T) {
	m := midas.NewMetrics()
	sess := midas.NewSession(nil, &midas.Options{Metrics: m})
	sess.AddFacts(sessionCorpusFacts()...)
	if got := m.Counter("session/facts_added"); got != 150 {
		t.Errorf("session/facts_added = %d, want 150", got)
	}

	res := sess.Discover()
	if len(res.Slices) == 0 {
		t.Fatal("no slices discovered")
	}
	sess.Absorb(res.Slices[0])
	sess.Discover()
	sess.Progress()

	if got := m.Counter("session/discoveries"); got != 2 {
		t.Errorf("session/discoveries = %d, want 2", got)
	}
	if got := m.Counter("session/absorbs"); got != 1 {
		t.Errorf("session/absorbs = %d, want 1", got)
	}
	if got := m.Counter("session/facts_absorbed"); got <= 0 {
		t.Errorf("session/facts_absorbed = %d, want > 0", got)
	}

	var buf strings.Builder
	if err := m.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"midas_session_discoveries_total 2",
		"midas_session_discover_seconds_count 2",
		"# TYPE midas_session_kb_facts gauge",
		"# TYPE midas_session_corpus_coverage gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("OpenMetrics exposition missing %q", want)
		}
	}
}

// TestSessionFingerprint: stable on an unchanged session, moves on
// AddFacts and on Absorb (the KB grew), and is insensitive to the
// order-independent parts of the call pattern (Discover, Progress).
func TestSessionFingerprint(t *testing.T) {
	sess := midas.NewSession(nil, nil)
	sess.AddFacts(sessionCorpusFacts()...)
	fp := sess.Fingerprint()
	if sess.Fingerprint() != fp {
		t.Fatal("fingerprint changed with no mutation")
	}
	res := sess.Discover()
	sess.Progress()
	if sess.Fingerprint() != fp {
		t.Error("Discover/Progress must not move the fingerprint")
	}
	sess.AddFacts(midas.Fact{
		Subject: "late entity", Predicate: "kind", Object: "type0",
		Confidence: 0.9, URL: "http://site0.example.com/wiki/late.htm",
	})
	fpAdd := sess.Fingerprint()
	if fpAdd == fp {
		t.Error("AddFacts must move the fingerprint")
	}
	if len(res.Slices) == 0 {
		t.Fatal("no slices")
	}
	if sess.Absorb(res.Slices[0]) == 0 {
		t.Fatal("absorb added nothing")
	}
	if sess.Fingerprint() == fpAdd {
		t.Error("Absorb that grows the KB must move the fingerprint")
	}

	// A second session built the same way reproduces the fingerprint.
	again := midas.NewSession(nil, nil)
	again.AddFacts(sessionCorpusFacts()...)
	if again.Fingerprint() != fp {
		t.Error("identical sessions must share a fingerprint")
	}
}

// TestSessionCached: Cached hands out the last complete discovery's
// result exactly while the session stays at the fingerprint it ran at,
// and Remember adopts a result only at the current fingerprint. Each
// case starts from a session holding sessionCorpusFacts and returns
// what Cached must answer afterwards.
func TestSessionCached(t *testing.T) {
	lateFact := midas.Fact{
		Subject: "late entity", Predicate: "kind", Object: "type0",
		Confidence: 0.9, URL: "http://site0.example.com/wiki/late.htm",
	}
	discover := func(t *testing.T, sess *midas.Session) *midas.Result {
		t.Helper()
		res, err := sess.DiscoverContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Slices) == 0 {
			t.Fatal("no slices")
		}
		return res
	}
	cases := []struct {
		name string
		run  func(t *testing.T, sess *midas.Session) *midas.Result
	}{
		{"before any discovery", func(t *testing.T, sess *midas.Session) *midas.Result {
			return nil
		}},
		{"after a complete discovery", func(t *testing.T, sess *midas.Session) *midas.Result {
			return discover(t, sess)
		}},
		{"after AddFacts", func(t *testing.T, sess *midas.Session) *midas.Result {
			discover(t, sess)
			sess.AddFacts(lateFact)
			return nil
		}},
		{"after Absorb", func(t *testing.T, sess *midas.Session) *midas.Result {
			res := discover(t, sess)
			if sess.Absorb(res.Slices[0]) == 0 {
				t.Fatal("absorb added nothing")
			}
			return nil
		}},
		{"after a duplicate-only Absorb", func(t *testing.T, sess *midas.Session) *midas.Result {
			res := discover(t, sess)
			sess.Absorb(res.Slices[0])
			sess.Discover()
			if sess.Cached() == nil {
				t.Fatal("no memo after the re-discovery")
			}
			if n := sess.Absorb(res.Slices[0]); n != 0 {
				t.Fatalf("duplicate absorb added %d facts", n)
			}
			return nil
		}},
		{"after a direct KB write", func(t *testing.T, sess *midas.Session) *midas.Result {
			discover(t, sess)
			sess.KB().Add("v0 entity 0", "kind", "type0")
			return nil
		}},
		{"after a canceled discovery", func(t *testing.T, sess *midas.Session) *midas.Result {
			discover(t, sess)
			sess.AddFacts(lateFact)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := sess.DiscoverContext(ctx); err == nil {
				t.Fatal("canceled discovery reported no error")
			}
			return nil
		}},
		{"Remember at a stale fingerprint", func(t *testing.T, sess *midas.Session) *midas.Result {
			res := discover(t, sess)
			sess.AddFacts(lateFact)
			if sess.Remember(res) {
				t.Error("Remember adopted a result at a stale fingerprint")
			}
			return nil
		}},
		{"Remember at the current fingerprint", func(t *testing.T, sess *midas.Session) *midas.Result {
			other := midas.NewSession(nil, nil)
			other.AddFacts(sessionCorpusFacts()...)
			res := discover(t, other)
			if !sess.Remember(res) {
				t.Error("Remember refused a result at the current fingerprint")
			}
			return res
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sess := midas.NewSession(nil, nil)
			sess.AddFacts(sessionCorpusFacts()...)
			want := tc.run(t, sess)
			if got := sess.Cached(); got != want {
				t.Errorf("Cached() = %p, want %p", got, want)
			}
		})
	}
}

// TestSessionConcurrent: ≥8 goroutines hammer one session with the full
// method surface; run under -race this proves the RWMutex guard. The
// assertions are deliberately weak — the point is the interleaving.
func TestSessionConcurrent(t *testing.T) {
	sess := midas.NewSession(nil, nil)
	sess.AddFacts(sessionCorpusFacts()...)

	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				switch c % 4 {
				case 0:
					res, err := sess.DiscoverContext(context.Background())
					if err != nil {
						t.Errorf("discover: %v", err)
					}
					for _, sl := range res.Slices {
						sess.Absorb(sl)
					}
				case 1:
					sess.AddFacts(midas.Fact{
						Subject:   fmt.Sprintf("c%d entity %d", c, i),
						Predicate: "kind", Object: "concurrent",
						Confidence: 0.9,
						URL:        fmt.Sprintf("http://conc.example.com/c%d/e%d.htm", c, i),
					})
					sess.Fingerprint()
				case 2:
					sess.Discover()
					sess.CorpusSize()
				default:
					sess.Progress()
					sess.Fingerprint()
					sess.Cached()
					sess.SourceFingerprints()
				}
			}
		}(c)
	}
	wg.Wait()
	if kb, _ := sess.Progress(); kb == 0 {
		t.Error("nothing absorbed across the run")
	}
}
