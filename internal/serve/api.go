package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"midas"
	"midas/internal/obs"
	"midas/internal/store"
)

// routes mounts the JSON API. Every handler runs behind withMetrics,
// which applies the server's request deadline to the request context
// (client disconnects already propagate through it) and its body bound
// to the request body, and records the per-endpoint counter and timer.
func (s *Server) routes(mux *http.ServeMux) {
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.withMetrics(pattern, h))
	}
	handle("GET /healthz", s.handleHealth)
	handle("GET /readyz", s.handleReady)
	handle("POST /api/sessions", s.handleCreateSession)
	handle("GET /api/sessions", s.handleListSessions)
	handle("GET /api/sessions/{name}", s.handleGetSession)
	handle("DELETE /api/sessions/{name}", s.handleDeleteSession)
	handle("POST /api/sessions/{name}/kb", s.handleLoadKB)
	handle("POST /api/sessions/{name}/facts", s.handleAddFacts)
	handle("POST /api/sessions/{name}/discover", s.handleDiscover)
	handle("POST /api/sessions/{name}/absorb", s.handleAbsorb)
	handle("GET /api/sessions/{name}/progress", s.handleProgress)
	handle("GET /api/jobs", s.handleListJobs)
	handle("GET /api/jobs/{id}", s.handleGetJob)
	handle("GET /api/jobs/{id}/result", s.handleJobResult)
	handle("GET /api/sessions/{name}/jobs/{id}/profile", s.handleJobProfile)
}

type statusWriter struct {
	http.ResponseWriter
	code int
	// fields are extra key/value pairs a handler attaches to the
	// request's access-log record (addLogFields) — how the discover
	// handler puts the job ID on the line that carries the request ID.
	fields []any
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// addLogFields attaches key/value pairs to the access-log record of the
// request being served on w. No-op when w is not the middleware's
// writer (plain httptest writers in handler unit tests).
func addLogFields(w http.ResponseWriter, kv ...any) {
	if sw, ok := w.(*statusWriter); ok {
		sw.fields = append(sw.fields, kv...)
	}
}

// reqIDKey carries the request ID through the context, alongside (not
// instead of) the log fields — handlers need the raw value to stamp it
// onto the jobs they spawn.
type reqIDKey struct{}

func requestID(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// withMetrics wraps every API handler with the request-scoped
// observability: the request deadline, the body bound, a request ID, a
// root span (the trace every discovery span of this request hangs off),
// the per-endpoint request counter and latency histogram, and one
// structured access-log record on completion.
func (s *Server) withMetrics(pattern string, h http.HandlerFunc) http.HandlerFunc {
	requests := s.reg.CounterVec("serve/requests", "endpoint", "code")
	latency := s.reg.HistogramVec("serve/request_seconds", obs.DefaultLatencyBuckets, "endpoint")
	// Probes and scrapes are polled continuously; give them spans and
	// access logs only at debug verbosity so the interesting traffic
	// stands out (and the tracer holds discovery traces, not probes).
	probe := !strings.Contains(pattern, "/api/")
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if s.opts.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = withTimeout(ctx, s.opts.RequestTimeout)
			defer cancel()
		}
		reqID := s.ids.RequestID()
		ctx = context.WithValue(ctx, reqIDKey{}, reqID)
		ctx = obs.ContextWithLogFields(ctx, "request", reqID)
		var span *obs.Span
		if !probe {
			ctx, span = s.tracer.StartSpan(ctx, "serve/request")
			span.Arg("endpoint", pattern).Arg("request", reqID)
		}
		r = r.WithContext(ctx)

		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		r.Body = http.MaxBytesReader(sw, r.Body, s.opts.MaxBodyBytes)
		start := time.Now()
		h(sw, r)
		elapsed := time.Since(start)

		span.Arg("code", strconv.Itoa(sw.code)).End()
		latency.With(pattern).Observe(elapsed.Seconds())
		requests.With(pattern, strconv.Itoa(sw.code)).Inc()
		level := slog.LevelInfo
		if probe {
			level = slog.LevelDebug
		}
		kv := append([]any{
			"method", r.Method, "path", r.URL.Path, "endpoint", pattern,
			"code", sw.code, "dur", elapsed,
		}, sw.fields...)
		s.logger().Log(ctx, level, "request", kv...)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// sessionOrErr resolves {name}, writing the 404 itself when absent.
func (s *Server) sessionOrErr(w http.ResponseWriter, r *http.Request) *session {
	name := r.PathValue("name")
	sn := s.session(name)
	if sn == nil {
		writeErr(w, http.StatusNotFound, "no session %q", name)
	}
	return sn
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "draining": draining})
}

// handleReady is the routing probe: 200 only while the server wants
// traffic. It flips to 503 the moment Drain begins — while /healthz
// stays 200, so orchestrators stop routing without killing the process
// mid-drain — and stays 503 until the binary calls SetReady(true).
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	ready := s.ready.Load() && !draining
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"ready": ready, "draining": draining})
}

// apiOptions is the JSON shape of midas.Options accepted at session
// creation (the subset that is serializable; metrics and tracing stay
// process-wide).
type apiOptions struct {
	Workers            int      `json:"workers"`
	MinConfidence      float64  `json:"min_confidence"`
	Fuse               bool     `json:"fuse"`
	MaxSlices          int      `json:"max_slices"`
	NumericBucketWidth float64  `json:"numeric_bucket_width"`
	MaxPropsPerEntity  int      `json:"max_props_per_entity"`
	MaxInitCombos      int      `json:"max_init_combos"`
	Cost               *apiCost `json:"cost"`
}

type apiCost struct {
	Fp float64 `json:"fp"`
	Fc float64 `json:"fc"`
	Fd float64 `json:"fd"`
	Fv float64 `json:"fv"`
}

func (o *apiOptions) toOptions() *midas.Options {
	if o == nil {
		return nil
	}
	opts := &midas.Options{
		Workers:            o.Workers,
		MinConfidence:      o.MinConfidence,
		Fuse:               o.Fuse,
		MaxSlices:          o.MaxSlices,
		NumericBucketWidth: o.NumericBucketWidth,
		MaxPropsPerEntity:  o.MaxPropsPerEntity,
		MaxInitCombos:      o.MaxInitCombos,
	}
	if o.Cost != nil {
		opts.Cost = midas.CostModel{Fp: o.Cost.Fp, Fc: o.Cost.Fc, Fd: o.Cost.Fd, Fv: o.Cost.Fv}
	}
	return opts
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name    string      `json:"name"`
		Options *apiOptions `json:"options"`
	}
	if err := decodeJSONBody(r, &req, true); err != nil {
		writeErr(w, bodyErrCode(err), "bad request body: %v", err)
		return
	}
	// The options JSON persisted with the create record is the
	// re-marshaled request shape, so recovery decodes exactly what this
	// session was built from.
	optionsJSON, err := json.Marshal(req.Options)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad options: %v", err)
		return
	}
	sn, err := s.createSession(req.Name, req.Options.toOptions(), optionsJSON)
	switch {
	case errors.Is(err, errExists):
		writeErr(w, http.StatusConflict, "session %q already exists", req.Name)
	case err != nil:
		writeErr(w, http.StatusBadRequest, "%v", err)
	default:
		addLogFields(w, "session", sn.name)
		s.logger().InfoContext(r.Context(), "session created", "session", sn.name)
		writeJSON(w, http.StatusCreated, map[string]string{"session": sn.name})
	}
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.sessions))
	for name := range s.sessions {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	list := make([]map[string]any, 0, len(names))
	for _, name := range names {
		if sn := s.session(name); sn != nil {
			list = append(list, sessionInfo(sn))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": list})
}

func sessionInfo(sn *session) map[string]any {
	return map[string]any{
		"session":      sn.name,
		"corpus_facts": sn.sess.CorpusSize(),
		"kb_facts":     sn.sess.KB().Size(),
		"fingerprint":  fmt.Sprintf("%016x", sn.sess.Fingerprint()),
		"kb_epoch":     sn.sess.KBEpoch(),
		"recovered":    sn.recovered,
	}
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	if sn := s.sessionOrErr(w, r); sn != nil {
		writeJSON(w, http.StatusOK, sessionInfo(sn))
	}
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	found, err := s.deleteSession(r.Context(), name)
	switch {
	case !found:
		writeErr(w, http.StatusNotFound, "no session %q", name)
	case err != nil:
		// The session is gone from the registry either way; the error
		// reports jobs that outlived the request deadline or durable
		// files that could not be removed.
		writeErr(w, http.StatusInternalServerError, "deleting session %q: %v", name, err)
	default:
		s.logger().InfoContext(r.Context(), "session deleted", "session", name)
		w.WriteHeader(http.StatusNoContent)
	}
}

func (s *Server) handleLoadKB(w http.ResponseWriter, r *http.Request) {
	sn := s.sessionOrErr(w, r)
	if sn == nil {
		return
	}
	format := r.URL.Query().Get("format")
	switch format {
	case "", "tsv", "binary", "ntriples":
	default:
		writeErr(w, http.StatusBadRequest, "unknown KB format %q", format)
		return
	}
	// Stage → log → apply, the same for memory-only and durable
	// sessions. The loaders apply while parsing, so the body is first
	// parsed into a scratch KB: a malformed body is rejected before
	// anything is logged or applied, and the session load of the same
	// bytes cannot fail part-way.
	raw, err := io.ReadAll(ctxReader(r.Context(), r.Body))
	if err != nil {
		writeErr(w, bodyErrCode(err), "reading KB body: %v", err)
		return
	}
	// The scratch KB reports its load metrics to a throwaway registry:
	// only the session load below counts in kb/load_*.
	scratch := midas.NewKB()
	scratch.SetMetrics(midas.NewMetrics())
	if _, err := loadKB(scratch, format, raw); err != nil {
		writeErr(w, http.StatusBadRequest, "loading KB: %v", err)
		return
	}
	sn.wmu.Lock()
	if sn.slog != nil {
		if err := sn.slog.AppendKB(format, raw); err != nil {
			sn.wmu.Unlock()
			writeErr(w, http.StatusInternalServerError, "persisting KB load: %v", err)
			return
		}
	}
	added, err := loadKB(sn.sess.KB(), format, raw)
	sn.wmu.Unlock()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "applying staged KB load: %v", err)
		return
	}
	s.maybeSnapshot(sn)
	writeJSON(w, http.StatusOK, map[string]int{"added": added})
}

// loadKB dispatches one KB bulk load; format has been validated.
func loadKB(k *midas.KB, format string, body []byte) (int, error) {
	switch format {
	case "", "tsv":
		return k.LoadTSV(bytes.NewReader(body))
	case "binary":
		return k.LoadBinary(bytes.NewReader(body))
	default:
		return k.LoadNTriples(bytes.NewReader(body))
	}
}

type apiFact struct {
	Subject    string  `json:"subject"`
	Predicate  string  `json:"predicate"`
	Object     string  `json:"object"`
	Confidence float64 `json:"confidence"`
	URL        string  `json:"url"`
}

// parseFactsJSON decodes a JSON array of facts. A zero confidence
// defaults to 1 (extraction output often omits it); anything else
// outside (0,1] — negative, NaN via raw floats, over 1 — rejects the
// batch.
func parseFactsJSON(r io.Reader) ([]midas.Fact, error) {
	var in []apiFact
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, err
	}
	facts := make([]midas.Fact, 0, len(in))
	for i, f := range in {
		if f.Confidence == 0 {
			f.Confidence = 1
		}
		if !validConfidence(f.Confidence) {
			return nil, fmt.Errorf("fact %d: confidence %v outside (0,1]", i, f.Confidence)
		}
		facts = append(facts, midas.Fact{
			Subject: f.Subject, Predicate: f.Predicate, Object: f.Object,
			Confidence: f.Confidence, URL: f.URL,
		})
	}
	return facts, nil
}

// validConfidence bounds an extraction confidence to (0,1]; the
// comparison chain is false for NaN.
func validConfidence(c float64) bool { return c > 0 && c <= 1 }

// parseFactsTSV decodes TSV lines in the midas-datagen facts.tsv
// layout: subject, predicate, object [, confidence [, url]]. Blank
// lines are skipped; anything else malformed fails the whole batch
// (ingestion is atomic — parse everything, then add).
func parseFactsTSV(r io.Reader) ([]midas.Fact, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var facts []midas.Fact
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		cols := strings.Split(text, "\t")
		if len(cols) < 3 {
			return nil, lineErr(sc, fmt.Errorf("facts line %d: %d columns, want ≥ 3", line, len(cols)))
		}
		if cols[0] == "" || cols[1] == "" || cols[2] == "" {
			return nil, lineErr(sc, fmt.Errorf("facts line %d: empty subject, predicate, or object", line))
		}
		f := midas.Fact{Subject: cols[0], Predicate: cols[1], Object: cols[2], Confidence: 1}
		if len(cols) > 3 && cols[3] != "" {
			conf, err := strconv.ParseFloat(cols[3], 64)
			if err != nil || !validConfidence(conf) {
				return nil, lineErr(sc, fmt.Errorf("facts line %d: bad confidence %q", line, cols[3]))
			}
			f.Confidence = conf
		}
		if len(cols) > 4 {
			f.URL = cols[4]
		}
		facts = append(facts, f)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading facts: %w", err)
	}
	return facts, nil
}

// lineErr reports a malformed facts line, unless the line was cut short
// by a failed read (the body bound, a disconnect): then the read error
// is what went wrong.
func lineErr(sc *bufio.Scanner, err error) error {
	if rerr := sc.Err(); rerr != nil {
		return fmt.Errorf("reading facts: %w", rerr)
	}
	return err
}

// handleAddFacts accepts extraction output either as a JSON array of
// facts or, for any non-JSON content type, as TSV lines in the
// midas-datagen facts.tsv layout: subject, predicate, object
// [, confidence [, url]].
func (s *Server) handleAddFacts(w http.ResponseWriter, r *http.Request) {
	sn := s.sessionOrErr(w, r)
	if sn == nil {
		return
	}
	body := ctxReader(r.Context(), r.Body)
	var (
		facts []midas.Fact
		err   error
	)
	if strings.Contains(r.Header.Get("Content-Type"), "json") {
		facts, err = parseFactsJSON(body)
	} else {
		facts, err = parseFactsTSV(body)
	}
	if err != nil {
		writeErr(w, bodyErrCode(err), "bad facts body: %v", err)
		return
	}
	sn.wmu.Lock()
	if sn.slog != nil {
		// Durable before applied: if the append fails, the session memory
		// is untouched and the 500 is honest — nothing to forget.
		if aerr := sn.slog.AppendFacts(facts); aerr != nil {
			sn.wmu.Unlock()
			writeErr(w, http.StatusInternalServerError, "persisting facts: %v", aerr)
			return
		}
	}
	sn.sess.AddFacts(facts...)
	sn.wmu.Unlock()
	s.maybeSnapshot(sn)
	writeJSON(w, http.StatusOK, map[string]int{"added": len(facts)})
}

func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	sn := s.sessionOrErr(w, r)
	if sn == nil {
		return
	}
	q := r.URL.Query()
	wait := q.Get("wait") == "true" || q.Get("wait") == "1"
	var timeout time.Duration
	if t := q.Get("timeout"); t != "" {
		d, err := time.ParseDuration(t)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad timeout %q", t)
			return
		}
		timeout = d
	}
	j, err := s.startDiscover(r.Context(), sn, wait, timeout)
	switch {
	case errors.Is(err, errDraining):
		w.Header().Set("Retry-After", "5")
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	case errors.Is(err, errSaturated):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "discovery capacity saturated, retry later")
		return
	}
	addLogFields(w, "job", j.id, "session", sn.name)
	j.mu.Lock()
	status := j.status
	j.mu.Unlock()
	code := http.StatusAccepted
	if status != StateRunning {
		code = http.StatusOK
	}
	writeJSON(w, code, s.jobInfo(j))
}

func (s *Server) jobInfo(j *job) map[string]any {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := map[string]any{
		"job":     j.id,
		"session": j.session,
		"status":  j.status,
		"cached":  j.cached,
	}
	if j.err != nil {
		info["error"] = j.err.Error()
	}
	if j.result != nil {
		info["slices"] = len(j.result.Slices)
	}
	end := j.finished
	if j.status == StateRunning {
		end = s.now()
	}
	info["elapsed_seconds"] = end.Sub(j.started).Seconds()
	return info
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.RUnlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].started.Before(jobs[k].started) })
	list := make([]map[string]any, len(jobs))
	for i, j := range jobs {
		list[i] = s.jobInfo(j)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": list})
}

func (s *Server) jobOrErr(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	j := s.job(id)
	if j == nil {
		writeErr(w, http.StatusNotFound, "no job %q", id)
	}
	return j
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	if j := s.jobOrErr(w, r); j != nil {
		writeJSON(w, http.StatusOK, s.jobInfo(j))
	}
}

type apiProperty struct {
	Predicate string `json:"predicate"`
	Value     string `json:"value"`
}

type apiSlice struct {
	Source      string        `json:"source"`
	Description string        `json:"description"`
	Properties  []apiProperty `json:"properties"`
	Entities    []string      `json:"entities"`
	Facts       int           `json:"facts"`
	NewFacts    int           `json:"new_facts"`
	Profit      float64       `json:"profit"`
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobOrErr(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	status, cached, res, jerr := j.status, j.cached, j.result, j.err
	j.mu.Unlock()
	switch {
	case status == StateRunning:
		writeErr(w, http.StatusConflict, "job %s is still running", j.id)
		return
	case res == nil:
		writeErr(w, http.StatusInternalServerError, "job %s failed: %v", j.id, jerr)
		return
	}
	slices := make([]apiSlice, len(res.Slices))
	for i, sl := range res.Slices {
		props := make([]apiProperty, len(sl.Properties))
		for k, p := range sl.Properties {
			props[k] = apiProperty{Predicate: p.Predicate, Value: p.Value}
		}
		slices[i] = apiSlice{
			Source: sl.Source, Description: sl.Description, Properties: props,
			Entities: sl.Entities, Facts: sl.Facts, NewFacts: sl.NewFacts, Profit: sl.Profit,
		}
	}
	out := map[string]any{
		"job":               j.id,
		"session":           j.session,
		"status":            status,
		"cached":            cached,
		"rounds":            res.Rounds,
		"sources_processed": res.SourcesProcessed,
		"fingerprint":       fmt.Sprintf("%016x", res.Fingerprint),
		"slices":            slices,
	}
	if jerr != nil {
		out["error"] = jerr.Error()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleAbsorb absorbs slices of a finished job's result into the
// session KB: the listed indexes, or every slice when none are given.
func (s *Server) handleAbsorb(w http.ResponseWriter, r *http.Request) {
	sn := s.sessionOrErr(w, r)
	if sn == nil {
		return
	}
	var req struct {
		Job    string `json:"job"`
		Slices []int  `json:"slices"`
	}
	if err := decodeJSONBody(r, &req, false); err != nil {
		writeErr(w, bodyErrCode(err), "bad request body: %v", err)
		return
	}
	j := s.job(req.Job)
	if j == nil {
		writeErr(w, http.StatusNotFound, "no job %q", req.Job)
		return
	}
	j.mu.Lock()
	res, status, jobSession := j.result, j.status, j.session
	j.mu.Unlock()
	if jobSession != sn.name {
		writeErr(w, http.StatusBadRequest, "job %s belongs to session %q", req.Job, jobSession)
		return
	}
	if status == StateRunning || res == nil {
		writeErr(w, http.StatusConflict, "job %s has no result to absorb (status %s)", req.Job, status)
		return
	}
	idx := req.Slices
	if len(idx) == 0 {
		idx = make([]int, len(res.Slices))
		for i := range idx {
			idx[i] = i
		}
	}
	// Validate every index before absorbing anything: the batch must be
	// all-or-nothing so the logged record matches what was applied.
	for _, i := range idx {
		if i < 0 || i >= len(res.Slices) {
			writeErr(w, http.StatusBadRequest, "slice index %d out of range [0,%d)", i, len(res.Slices))
			return
		}
	}
	sn.wmu.Lock()
	if sn.slog != nil {
		slices := make([]store.AbsorbSlice, len(idx))
		for k, i := range idx {
			slices[k] = store.AbsorbSlice{Source: res.Slices[i].Source, Entities: res.Slices[i].Entities}
		}
		if aerr := sn.slog.AppendAbsorb(slices); aerr != nil {
			sn.wmu.Unlock()
			writeErr(w, http.StatusInternalServerError, "persisting absorb: %v", aerr)
			return
		}
	}
	added, absorbed := 0, 0
	for _, i := range idx {
		added += sn.sess.Absorb(res.Slices[i])
		absorbed++
	}
	sn.wmu.Unlock()
	s.maybeSnapshot(sn)
	writeJSON(w, http.StatusOK, map[string]int{"absorbed": absorbed, "added": added})
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	sn := s.sessionOrErr(w, r)
	if sn == nil {
		return
	}
	kbFacts, covered := sn.sess.Progress()
	writeJSON(w, http.StatusOK, map[string]any{"kb_facts": kbFacts, "coverage": covered})
}

// ctxReader bounds reads from r by ctx: once the request deadline hits
// or the client disconnects, the next Read returns ctx.Err() instead of
// blocking on a stalled body. (net/http cancels the connection on
// disconnect, but a deadline set by withMetrics otherwise leaves body
// reads running past it.)
func ctxReader(ctx context.Context, r io.Reader) io.Reader {
	return ctxReadFunc(func(p []byte) (int, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return r.Read(p)
	})
}

type ctxReadFunc func(p []byte) (int, error)

func (f ctxReadFunc) Read(p []byte) (int, error) { return f(p) }

// bodyErrCode answers 413 for a body past Options.MaxBodyBytes and 400
// for any other unreadable or malformed body.
func bodyErrCode(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// decodeJSONBody decodes a JSON request body into v. An empty body is
// allowed when optional is true (e.g. POST /api/sessions with defaults).
func decodeJSONBody(r *http.Request, v any, optional bool) error {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		if optional && errors.Is(err, io.EOF) {
			return nil
		}
		return err
	}
	return nil
}
