package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"midas"
	"midas/internal/serve"
)

// worker owns a deterministic op stream: its PRNG is seeded from the
// run seed and its ID, so the sequence of operations it issues is a
// pure function of (-seed, worker index) no matter how the goroutines
// interleave. Each worker owns its sessions outright — no other worker
// mutates them — which is what makes the client-side oracles exact.
type worker struct {
	h   *seedHarness
	id  int
	rng *rand.Rand

	// opGen is the server generation the current op started against;
	// failures are judged against it (see restartHit).
	opGen int64

	sessions []*wsession
	created  int
}

// wsession pairs a server-side session with its client-side oracles:
// a mirror midas.Session that replays every confirmed mutation through
// the public API (incremental path), and the raw mutation log from
// which finalChecks builds a from-scratch session. tainted flips when
// a fault left the server state unknowable (a KB upload that died
// mid-stream loads a prefix server-side), after which the oracles
// stand down for this session.
type wsession struct {
	name    string
	mirror  *midas.Session
	log     []mutation
	tainted bool
	rows    int               // fact rows ingested, capped by -max-facts
	digests map[string]string // result fingerprint → slice digest
}

type mutation struct {
	facts []midas.Fact // facts ingest (atomic server-side)
	kb    []byte       // KB TSV body
	slice midas.Slice  // absorb (Source+Entities are all Absorb reads)
}

func newWorker(h *seedHarness, id int) *worker {
	return &worker{h: h, id: id, rng: rand.New(rand.NewSource(h.seed*1000 + int64(id)))}
}

// restartHit downgrades a failure that overlaps a server restart from
// a violation to a taint: the op's outcome is unknowable (the request
// may have died client-side, server-side, or against a frozen store),
// so the session stands its oracles down instead of crying wolf.
func (w *worker) restartHit(seq int, sn *wsession, note string) bool {
	if !w.h.interrupted(w.opGen) {
		return false
	}
	name := ""
	if sn != nil {
		sn.tainted = true
		name = sn.name
	}
	w.h.record(w.id, seq, "restart-hit", name, 0, note)
	return true
}

func (w *worker) removeSession(sn *wsession) {
	for i, s := range w.sessions {
		if s == sn {
			w.sessions = append(w.sessions[:i], w.sessions[i+1:]...)
			break
		}
	}
}

// step issues one operation drawn from the worker's op distribution.
func (w *worker) step(seq int) {
	w.opGen = w.h.gen.Load()
	if len(w.sessions) == 0 {
		w.createSession(seq)
		return
	}
	sn := w.sessions[w.rng.Intn(len(w.sessions))]
	switch p := w.rng.Float64(); {
	case p < 0.05 && len(w.sessions) < 2:
		w.createSession(seq)
	case p < 0.08:
		w.deleteSession(seq, sn)
	case p < 0.30:
		w.ingestFacts(seq, sn)
	case p < 0.40:
		w.loadKB(seq, sn)
	case p < 0.60:
		w.discoverAsync(seq, sn)
	case p < 0.72:
		w.discoverSync(seq, sn)
	case p < 0.77:
		w.disconnect(seq, sn)
	case p < 0.85:
		w.mirrorCheck(seq, sn)
	default:
		w.reads(seq, sn)
	}
}

func (w *worker) createSession(seq int) {
	w.created++
	name := fmt.Sprintf("s%d-w%d-%d", w.h.seed, w.id, w.created)
	body := strings.NewReader(fmt.Sprintf(`{"name":%q}`, name))
	code, err := w.h.doJSON(w.h.hc, "POST", "/api/sessions", body, "application/json", nil)
	w.h.record(w.id, seq, "create", name, code, "")
	if err != nil || code != http.StatusCreated {
		if !w.restartHit(seq, nil, "create") {
			w.h.violate(w.id, seq, "create-session", fmt.Sprintf("%s: HTTP %d (%v)", name, code, err))
		}
		return
	}
	w.sessions = append(w.sessions, &wsession{
		name:    name,
		mirror:  midas.NewSession(nil, nil),
		digests: make(map[string]string),
	})
}

func (w *worker) deleteSession(seq int, sn *wsession) {
	code, err := w.h.doJSON(w.h.hc, "DELETE", "/api/sessions/"+sn.name, nil, "", nil)
	w.h.record(w.id, seq, "delete", sn.name, code, "")
	if err != nil || code != http.StatusNoContent {
		if w.restartHit(seq, sn, "delete") {
			// The delete may or may not have landed; either way this
			// worker is done with the session.
			w.removeSession(sn)
			return
		}
		w.h.violate(w.id, seq, "delete-session", fmt.Sprintf("%s: HTTP %d (%v)", sn.name, code, err))
		return
	}
	w.removeSession(sn)
}

// drawFacts picks a deterministic batch from the shared pool.
func (w *worker) drawFacts(n int) []midas.Fact {
	pool := w.h.cfg.pool
	facts := make([]midas.Fact, 0, n)
	start := w.rng.Intn(len(pool))
	for i := 0; i < n; i++ {
		r := pool[(start+i)%len(pool)]
		facts = append(facts, midas.Fact{
			Subject: r.subject, Predicate: r.predicate, Object: r.object,
			Confidence: r.confidence, URL: r.url,
		})
	}
	return facts
}

func (w *worker) ingestFacts(seq int, sn *wsession) {
	if sn.rows >= w.h.cfg.maxFacts {
		w.reads(seq, sn)
		return
	}
	// One batch in seven is deliberately malformed: the server must
	// reject it whole (400) and, ingestion being atomic, leave the
	// session untouched — so the mirror skips it too, no taint.
	if w.rng.Float64() < 1.0/7 {
		bad := "subject-only\n"
		code, err := w.h.doJSON(w.h.hc, "POST", "/api/sessions/"+sn.name+"/facts",
			strings.NewReader(bad), "text/tab-separated-values", nil)
		w.h.record(w.id, seq, "facts-bad", sn.name, code, "")
		if err == nil && code != http.StatusBadRequest && !w.restartHit(seq, sn, "facts-bad") {
			w.h.violate(w.id, seq, "facts-malformed", fmt.Sprintf("malformed batch: HTTP %d, want 400", code))
		}
		return
	}
	facts := w.drawFacts(5 + w.rng.Intn(20))
	asJSON := w.rng.Float64() < 0.5
	var body bytes.Buffer
	contentType := "text/tab-separated-values"
	if asJSON {
		contentType = "application/json"
		type jf struct {
			Subject    string  `json:"subject"`
			Predicate  string  `json:"predicate"`
			Object     string  `json:"object"`
			Confidence float64 `json:"confidence"`
			URL        string  `json:"url"`
		}
		arr := make([]jf, len(facts))
		for i, f := range facts {
			arr[i] = jf{f.Subject, f.Predicate, f.Object, f.Confidence, f.URL}
		}
		json.NewEncoder(&body).Encode(arr)
	} else {
		for _, f := range facts {
			fmt.Fprintf(&body, "%s\t%s\t%s\t%g\t%s\n", f.Subject, f.Predicate, f.Object, f.Confidence, f.URL)
		}
	}
	var out struct {
		Added int `json:"added"`
	}
	code, err := w.h.doJSON(w.h.hc, "POST", "/api/sessions/"+sn.name+"/facts", &body, contentType, &out)
	w.h.record(w.id, seq, "facts", sn.name, code, fmt.Sprintf("n=%d", len(facts)))
	switch {
	case err != nil:
		// The response was lost: the server may or may not have applied
		// the batch, so this session's oracles are done.
		sn.tainted = true
	case code != http.StatusOK:
		if !w.restartHit(seq, sn, "facts") {
			w.h.violate(w.id, seq, "facts-ingest", fmt.Sprintf("HTTP %d", code))
		}
	case out.Added != len(facts):
		w.h.violate(w.id, seq, "facts-count", fmt.Sprintf("added %d, sent %d", out.Added, len(facts)))
	default:
		sn.rows += len(facts)
		sn.mirror.AddFacts(facts...)
		sn.log = append(sn.log, mutation{facts: facts})
	}
}

// loadKB uploads a KB TSV whose request body runs through the
// injector's fault Reader — the KB-load latency/error seam. KB loads
// are atomic: an upload the server answered with an error applied
// nothing, so the mirror skips it and the replay oracle checks that the
// rejected load never became visible. Only a lost response (the server
// may or may not have applied it) taints the session.
func (w *worker) loadKB(seq int, sn *wsession) {
	n := 3 + w.rng.Intn(10)
	var body bytes.Buffer
	start := w.rng.Intn(len(w.h.cfg.pool))
	for i := 0; i < n; i++ {
		r := w.h.cfg.pool[(start+i)%len(w.h.cfg.pool)]
		fmt.Fprintf(&body, "%s\t%s\t%s\n", r.subject, r.predicate, r.object)
	}
	raw := body.Bytes()
	var out struct {
		Added int `json:"added"`
	}
	code, err := w.h.doJSON(w.h.hc, "POST", "/api/sessions/"+sn.name+"/kb",
		w.h.inj.Reader(bytes.NewReader(raw)), "text/tab-separated-values", &out)
	w.h.record(w.id, seq, "kb", sn.name, code, fmt.Sprintf("n=%d", n))
	if err != nil {
		sn.tainted = true
		return
	}
	if code != http.StatusOK {
		return
	}
	if _, err := sn.mirror.KB().LoadTSV(bytes.NewReader(raw)); err != nil {
		w.h.violate(w.id, seq, "mirror-kb", fmt.Sprintf("mirror rejected a body the server took: %v", err))
	}
	sn.log = append(sn.log, mutation{kb: raw})
}

type jobStatus struct {
	Job    string `json:"job"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
	Slices int    `json:"slices"`
}

type normProp struct {
	Predicate string `json:"predicate"`
	Value     string `json:"value"`
}

type normSlice struct {
	Source      string     `json:"source"`
	Description string     `json:"description"`
	Properties  []normProp `json:"properties"`
	Entities    []string   `json:"entities"`
	Facts       int        `json:"facts"`
	NewFacts    int        `json:"new_facts"`
	Profit      float64    `json:"profit"`
}

type resultPayload struct {
	Job         string      `json:"job"`
	Status      string      `json:"status"`
	Cached      bool        `json:"cached"`
	Rounds      int         `json:"rounds"`
	Fingerprint string      `json:"fingerprint"`
	Slices      []normSlice `json:"slices"`
}

// checkResult applies the cache-coherence invariant to a fetched
// complete result: a given (session, fingerprint) pair must always map
// to the same slices, and a cache hit must reproduce the digest of the
// completed run that populated it.
func (w *worker) checkResult(seq int, sn *wsession, res *resultPayload) {
	d := digest(res.Slices)
	if prev, ok := sn.digests[res.Fingerprint]; ok {
		if prev != d {
			w.h.violate(w.id, seq, "cache-coherence",
				fmt.Sprintf("session %s fingerprint %s served two different results (cached=%v)",
					sn.name, res.Fingerprint, res.Cached))
		}
	} else {
		sn.digests[res.Fingerprint] = d
	}
}

// pollJob waits a job out, enforcing the status invariants along the
// way: cached implies done, partial implies not cached.
func (w *worker) pollJob(seq int, sn *wsession, j *jobStatus) bool {
	deadline := time.Now().Add(60 * time.Second)
	for j.Status == serve.StateRunning {
		if time.Now().After(deadline) {
			w.h.violate(w.id, seq, "job-stuck", fmt.Sprintf("job %s still running after 60s", j.Job))
			return false
		}
		time.Sleep(time.Duration(1+w.rng.Intn(5)) * time.Millisecond)
		if code, err := w.h.doJSON(w.h.hc, "GET", "/api/jobs/"+j.Job, nil, "", j); err != nil || code != http.StatusOK {
			if !w.restartHit(seq, sn, "job-poll") {
				w.h.violate(w.id, seq, "job-poll", fmt.Sprintf("job %s: HTTP %d (%v)", j.Job, code, err))
			}
			return false
		}
	}
	if j.Cached && j.Status != serve.StateDone {
		w.h.violate(w.id, seq, "cached-not-done", fmt.Sprintf("job %s cached with status %s", j.Job, j.Status))
	}
	if j.Status == serve.StatePartial && j.Cached {
		w.h.violate(w.id, seq, "partial-cached", fmt.Sprintf("job %s partial yet cached", j.Job))
	}
	return true
}

func (w *worker) fetchResult(seq int, sn *wsession, job string) *resultPayload {
	var res resultPayload
	code, err := w.h.doJSON(w.h.hc, "GET", "/api/jobs/"+job+"/result", nil, "", &res)
	if err != nil || code != http.StatusOK {
		if !w.restartHit(seq, sn, "result-fetch") {
			w.h.violate(w.id, seq, "result-fetch", fmt.Sprintf("job %s: HTTP %d (%v)", job, code, err))
		}
		return nil
	}
	return &res
}

func (w *worker) discoverAsync(seq int, sn *wsession) {
	var j jobStatus
	code, err := w.h.doJSON(w.h.hc, "POST", "/api/sessions/"+sn.name+"/discover", nil, "", &j)
	w.h.record(w.id, seq, "discover", sn.name, code, j.Job)
	switch {
	case err != nil:
		return
	case code == http.StatusTooManyRequests:
		return // shed; reconciled against serve/shed at the end
	case code != http.StatusAccepted && code != http.StatusOK:
		if !w.restartHit(seq, sn, "discover") {
			w.h.violate(w.id, seq, "discover", fmt.Sprintf("HTTP %d", code))
		}
		return
	}
	if !w.pollJob(seq, sn, &j) {
		return
	}
	if j.Status != serve.StateDone {
		return
	}
	res := w.fetchResult(seq, sn, j.Job)
	if res == nil {
		return
	}
	w.checkResult(seq, sn, res)
	if len(res.Slices) > 0 && w.rng.Float64() < 0.5 {
		w.absorb(seq, sn, res)
	}
}

func (w *worker) absorb(seq int, sn *wsession, res *resultPayload) {
	k := 1 + w.rng.Intn(len(res.Slices))
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	body, _ := json.Marshal(map[string]any{"job": res.Job, "slices": idx})
	var out struct {
		Absorbed int `json:"absorbed"`
	}
	code, err := w.h.doJSON(w.h.hc, "POST", "/api/sessions/"+sn.name+"/absorb",
		bytes.NewReader(body), "application/json", &out)
	w.h.record(w.id, seq, "absorb", sn.name, code, fmt.Sprintf("job=%s k=%d", res.Job, k))
	switch {
	case err != nil:
		sn.tainted = true // absorb applies per-slice; outcome unknown
	case code != http.StatusOK:
		if !w.restartHit(seq, sn, "absorb") {
			w.h.violate(w.id, seq, "absorb", fmt.Sprintf("HTTP %d", code))
		}
	default:
		for _, i := range idx {
			sl := midas.Slice{Source: res.Slices[i].Source, Entities: res.Slices[i].Entities}
			sn.mirror.Absorb(sl)
			sn.log = append(sn.log, mutation{slice: sl})
		}
	}
}

// discoverSync exercises the wait=true path, including the
// deterministic-partial probe: a 1ns budget must yield a partial
// result (or an instant cache hit), never a fabricated completion.
func (w *worker) discoverSync(seq int, sn *wsession) {
	timeouts := []string{"1ns", "50ms", "2s", ""}
	timeout := timeouts[w.rng.Intn(len(timeouts))]
	path := "/api/sessions/" + sn.name + "/discover?wait=true"
	if timeout != "" {
		path += "&timeout=" + timeout
	}
	var j jobStatus
	code, err := w.h.doJSON(w.h.hc, "POST", path, nil, "", &j)
	w.h.record(w.id, seq, "discover-sync", sn.name, code, timeout)
	switch {
	case err != nil:
		return
	case code == http.StatusTooManyRequests:
		return
	case code != http.StatusOK:
		if !w.restartHit(seq, sn, "discover-sync") {
			w.h.violate(w.id, seq, "discover-sync", fmt.Sprintf("HTTP %d", code))
		}
		return
	}
	if j.Status == serve.StateRunning {
		w.h.violate(w.id, seq, "sync-running", fmt.Sprintf("job %s answered wait=true still running", j.Job))
		return
	}
	if j.Cached && j.Status != serve.StateDone {
		w.h.violate(w.id, seq, "cached-not-done", fmt.Sprintf("job %s cached with status %s", j.Job, j.Status))
	}
	if j.Status == serve.StateDone {
		res := w.fetchResult(seq, sn, j.Job)
		if res == nil {
			return
		}
		w.checkResult(seq, sn, res)
		// The deterministic-partial invariant: a 1ns budget is expired
		// before the pipeline's first context check, so an uncached
		// "done" must mean the run had no rounds to do (empty corpus) —
		// any actual pipeline work completing under that budget means a
		// deadline was ignored.
		if timeout == "1ns" && !j.Cached && (res.Rounds > 0 || len(res.Slices) > 0) {
			w.h.violate(w.id, seq, "deadline-partial",
				fmt.Sprintf("job %s completed %d rounds, %d slices inside a 1ns budget",
					j.Job, res.Rounds, len(res.Slices)))
		}
	}
}

// disconnect abandons a request client-side mid-flight; the server
// must absorb it (counted, never wedged — the metrics bounds and drain
// checks pick up the fallout).
func (w *worker) disconnect(seq int, sn *wsession) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+w.rng.Intn(5))*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "POST", w.h.base()+"/api/sessions/"+sn.name+"/discover?wait=true", nil)
	resp, err := w.h.hc.Do(req)
	if err != nil {
		w.h.disconns.Add(1)
		w.h.record(w.id, seq, "disconnect", sn.name, 0, "abandoned")
		return
	}
	resp.Body.Close()
	w.h.responses.Add(1)
	if resp.StatusCode == http.StatusTooManyRequests {
		w.h.shed429.Add(1)
	}
	w.h.record(w.id, seq, "disconnect", sn.name, resp.StatusCode, "answered first")
}

// syncDiscoverComplete runs a sync discovery to a complete result,
// retrying through shed responses; nil when the session can't produce
// one right now.
func (w *worker) syncDiscoverComplete(seq int, sn *wsession) *resultPayload {
	for attempt := 0; attempt < 5; attempt++ {
		var j jobStatus
		code, err := w.h.doJSON(w.h.hc, "POST", "/api/sessions/"+sn.name+"/discover?wait=true", nil, "", &j)
		if err != nil {
			return nil
		}
		if code == http.StatusTooManyRequests {
			time.Sleep(time.Duration(10*(attempt+1)) * time.Millisecond)
			continue
		}
		if code != http.StatusOK {
			if !w.restartHit(seq, sn, "discover-sync") {
				w.h.violate(w.id, seq, "discover-sync", fmt.Sprintf("HTTP %d", code))
			}
			return nil
		}
		if j.Status != serve.StateDone {
			continue // an injected cancel made it partial; try again
		}
		return w.fetchResult(seq, sn, j.Job)
	}
	return nil
}

// mirrorCheck is the incremental-vs-oracle invariant: the server's
// completed result for a session must match what the client-side
// mirror session computes from the same confirmed mutations — same
// fingerprint, same slices, bit for bit.
func (w *worker) mirrorCheck(seq int, sn *wsession) {
	if sn.tainted {
		w.reads(seq, sn)
		return
	}
	res := w.syncDiscoverComplete(seq, sn)
	w.h.record(w.id, seq, "mirror-check", sn.name, 0, "")
	if res == nil {
		return
	}
	w.checkResult(seq, sn, res)
	w.compareOracle(seq, sn, res, sn.mirror, "mirror")
}

func (w *worker) compareOracle(seq int, sn *wsession, res *resultPayload, oracle *midas.Session, kind string) {
	if fp := fmt.Sprintf("%016x", oracle.Fingerprint()); fp != res.Fingerprint {
		w.h.violate(w.id, seq, kind+"-fingerprint",
			fmt.Sprintf("session %s: server result at %s, %s at %s", sn.name, res.Fingerprint, kind, fp))
		return
	}
	want := normalize(oracle.Discover().Slices)
	if !sameSlices(res.Slices, want) {
		w.h.violate(w.id, seq, kind+"-result",
			fmt.Sprintf("session %s: server %d slices (digest %s), %s %d slices (digest %s)",
				sn.name, len(res.Slices), digest(res.Slices), kind, len(want), digest(want)))
	}
}

func normalize(slices []midas.Slice) []normSlice {
	out := make([]normSlice, len(slices))
	for i, s := range slices {
		props := make([]normProp, len(s.Properties))
		for k, p := range s.Properties {
			props[k] = normProp{Predicate: p.Predicate, Value: p.Value}
		}
		ents := s.Entities
		if ents == nil {
			ents = []string{}
		}
		out[i] = normSlice{
			Source: s.Source, Description: s.Description, Properties: props,
			Entities: ents, Facts: s.Facts, NewFacts: s.NewFacts, Profit: s.Profit,
		}
	}
	return out
}

func (w *worker) reads(seq int, sn *wsession) {
	paths := []string{
		"/api/sessions/" + sn.name + "/progress",
		"/api/sessions/" + sn.name,
		"/api/sessions",
		"/api/jobs",
		"/readyz",
	}
	path := paths[w.rng.Intn(len(paths))]
	code, err := w.h.doJSON(w.h.hc, "GET", path, nil, "", nil)
	w.h.record(w.id, seq, "read", sn.name, code, path)
	if err == nil && code != http.StatusOK && !w.restartHit(seq, sn, "read") {
		w.h.violate(w.id, seq, "read", fmt.Sprintf("GET %s: HTTP %d", path, code))
	}
}

// finalChecks closes each untainted session's loop: repeated rounds of
// complete discovery compared against BOTH oracles — the incremental
// mirror and a from-scratch session rebuilt from the mutation log —
// nudging the fingerprint between rounds so every round is a fresh
// pipeline run, not a cache hit.
func (w *worker) finalChecks() {
	for _, sn := range w.sessions {
		if sn.tainted {
			continue
		}
		for round := 0; round < 3; round++ {
			w.opGen = w.h.gen.Load()
			res := w.syncDiscoverComplete(-1, sn)
			if res == nil {
				break
			}
			w.checkResult(-1, sn, res)
			w.compareOracle(-1, sn, res, sn.mirror, "mirror")
			w.compareOracle(-1, sn, res, w.replayFresh(sn), "oracle")
			if round < 2 {
				w.nudge(sn)
			}
		}
	}
}

// replayFresh rebuilds the session from zero out of the mutation log —
// the from-scratch oracle the incremental server path must match.
func (w *worker) replayFresh(sn *wsession) *midas.Session {
	fresh := midas.NewSession(nil, nil)
	for _, m := range sn.log {
		switch {
		case m.facts != nil:
			fresh.AddFacts(m.facts...)
		case m.kb != nil:
			fresh.KB().LoadTSV(bytes.NewReader(m.kb))
		default:
			fresh.Absorb(m.slice)
		}
	}
	return fresh
}

// nudge moves the session's fingerprint with one confirmed fact.
func (w *worker) nudge(sn *wsession) {
	facts := w.drawFacts(1)
	facts[0].Subject = fmt.Sprintf("%s nudge %d", facts[0].Subject, w.rng.Int63())
	b, _ := json.Marshal([]map[string]any{{
		"subject": facts[0].Subject, "predicate": facts[0].Predicate,
		"object": facts[0].Object, "confidence": facts[0].Confidence, "url": facts[0].URL,
	}})
	code, err := w.h.doJSON(w.h.hc, "POST", "/api/sessions/"+sn.name+"/facts",
		bytes.NewReader(b), "application/json", nil)
	if err != nil {
		sn.tainted = true
		return
	}
	if code == http.StatusOK {
		sn.mirror.AddFacts(facts...)
		sn.log = append(sn.log, mutation{facts: facts})
	}
}
