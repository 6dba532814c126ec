// Package serve implements the midas-serve HTTP service: long-lived,
// named discovery sessions over the public midas API, exposed as a JSON
// surface hardened for real traffic. Discoveries run as asynchronous
// jobs behind a bounded in-flight semaphore (saturation sheds with 429),
// request deadlines and client disconnects propagate into the pipeline
// via context, a repeated discovery on an unchanged session is answered
// from the session's memoized last result (midas.Session.Cached), other
// discoveries run the session's delta-aware discovery (only sources the
// mutation touched are re-detected; reuse is surfaced as
// serve/cache/partial hits), and shutdown drains running jobs before
// the final metrics snapshot is flushed. Telemetry (/metrics,
// /debug/vars, /debug/pprof) is mounted on the same listener via
// obs.Mount.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"regexp"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"midas"
	"midas/internal/obs"
	"midas/internal/store"
)

// Options configures a Server. The zero value serves with the defaults
// noted per field.
type Options struct {
	// MaxInFlight bounds concurrently running discovery jobs (sync and
	// async alike); requests beyond it are shed with 429. Default:
	// GOMAXPROCS.
	MaxInFlight int
	// RequestTimeout is the per-request deadline applied to every API
	// handler (synchronous discoveries inherit it through the request
	// context). Default: 30s; negative disables.
	RequestTimeout time.Duration
	// JobTimeout bounds each asynchronous discovery job. Default:
	// unlimited.
	JobTimeout time.Duration
	// MaxBodyBytes bounds every request body (KB loads, fact batches,
	// JSON requests); a longer body is answered 413. Default:
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Registry receives the service metrics (serve/* series) and is the
	// registry whose telemetry endpoints are mounted on the API mux.
	// Default: the process-wide obs registry.
	Registry *obs.Registry
	// Logger receives access and job-lifecycle records. Default: the
	// process-wide obs logger, which writes nothing until configured.
	Logger *slog.Logger
	// Trace receives the per-request root spans and, through them, the
	// discovery pipeline's spans — one trace per request. Default: a
	// private tracer owned by the server (request tracing is what feeds
	// /profile, so unlike batch binaries it is always on).
	Trace *obs.Tracer
	// Store, when set, makes sessions durable: every confirmed mutation
	// is written to the session's write-ahead log before the 2xx ack,
	// compacting snapshots bound recovery time, and Recover restores
	// prior sessions at startup. nil serves from memory only.
	Store *store.Store
	// RestoreOptions, when set, post-processes the midas.Options decoded
	// from a recovered session's stored options JSON — the seam through
	// which the soak harness re-plants its fault-injecting detector
	// after a restart (Options.Detect is a function and cannot be
	// persisted). nil uses the decoded options as-is.
	RestoreOptions func(opts *midas.Options) *midas.Options
	// TraceRetention bounds completed spans kept by the tracer while
	// they wait to be folded into job profiles; oldest age out first,
	// and a job whose trace ages out before its first /profile GET
	// answers 404 there. A discovery over S sources emits ≈4·S spans
	// per round, so the default of 1<<17 holds the last few
	// Slim-corpus-sized jobs (folding a profile frees its trace
	// early). Negative retains everything.
	TraceRetention int

	// The four fields below are injection seams for the fault-injection
	// and soak harness (internal/faultinject, cmd/midas-soak). All
	// default to nil, and a nil seam costs production nothing beyond the
	// one resolution at New.

	// WrapDiscover, when set, wraps the discovery job body — the soak
	// harness injects seeded stalls and cancellations here. The wrapper
	// must honor ctx and must not mutate the session.
	WrapDiscover func(Discover) Discover
	// NewSession, when set, constructs the midas.Session behind each
	// created session — the seam through which the soak harness plants
	// a fault-injecting detector. nil means midas.NewSession(nil, opts).
	NewSession func(opts *midas.Options) *midas.Session
	// Now, when set, supplies the wall-clock timestamps the server
	// stamps on jobs and requests (started/finished times, elapsed
	// seconds) — the clock-skew seam. Context deadlines still run on
	// the real clock. nil means time.Now.
	Now func() time.Time
	// IDs, when set, mints request and job IDs (see IDSource). nil
	// means NewIDSource(0): plain deterministic counters.
	IDs *IDSource
}

// DefaultMaxBodyBytes is the request-body bound when
// Options.MaxBodyBytes is not positive: 64 MiB, about nine times the
// whole ReVerb-Slim facts.tsv posted in one request.
const DefaultMaxBodyBytes = 64 << 20

// Discover is the discovery job body: the function a Server runs for
// each non-cached discovery. The default calls sess.DiscoverContext;
// Options.WrapDiscover interposes on it.
type Discover func(ctx context.Context, sess *midas.Session) (*midas.Result, error)

// Server is the discovery service: a registry of named sessions and
// their discovery jobs. Create with New, mount Handler on an
// http.Server, and call Drain then Close on shutdown.
type Server struct {
	opts   Options
	reg    *obs.Registry
	log    *slog.Logger // nil = fall back to obs.DefaultLogger at call sites
	tracer *obs.Tracer
	sem    chan struct{}

	// ready gates /readyz: false until the binary reports the listener
	// up (SetReady), false again the moment Drain begins — the
	// load-balancer signal to stop routing here while /healthz still
	// answers 200 for liveness.
	ready atomic.Bool

	// now and ids are the resolved clock and ID seams (Options.Now,
	// Options.IDs), never nil after New.
	now func() time.Time
	ids *IDSource

	mu       sync.RWMutex
	sessions map[string]*session
	jobs     map[string]*job
	nextSess int
	draining bool

	jobsWG  sync.WaitGroup
	snapWG  sync.WaitGroup // async threshold snapshots in flight
	running int64          // guarded by mu

	baseCtx    context.Context // canceled to hard-stop all jobs
	cancelJobs context.CancelFunc

	// discover is the job body; tests substitute it to model slow or
	// blocking discoveries without large corpora, and Options.
	// WrapDiscover interposes fault injection on it.
	discover Discover
	// newSession is the resolved Options.NewSession seam.
	newSession func(opts *midas.Options) *midas.Session
}

// session is one named midas.Session plus its durable log. The
// Session itself memoizes its last complete result, which answers a
// repeated discovery (serve/cache/hit).
type session struct {
	name string
	sess *midas.Session

	// wmu serializes mutations (facts, KB loads, absorbs) against each
	// other, against WAL appends, and against snapshots, so every logged
	// record reflects the order the session actually applied.
	wmu sync.Mutex
	// slog is the session's durable log; nil when the server runs
	// without a store.
	slog *store.Log
	// recovered marks sessions restored from the store at startup.
	recovered bool
	// snapping guards the at-most-one async threshold snapshot.
	snapping atomic.Bool
}

// New returns a Server ready to serve Handler().
func New(opts Options) *Server {
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = 30 * time.Second
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	ctx, cancel := context.WithCancel(context.Background())
	tracer := opts.Trace
	if tracer == nil {
		tracer = obs.NewTracer()
	}
	retention := opts.TraceRetention
	if retention == 0 {
		retention = 1 << 17
	}
	if retention > 0 {
		tracer.SetRetention(retention)
	}
	s := &Server{
		opts:       opts,
		reg:        opts.Registry.OrDefault(),
		log:        opts.Logger,
		tracer:     tracer,
		now:        opts.Now,
		ids:        opts.IDs,
		sem:        make(chan struct{}, opts.MaxInFlight),
		sessions:   make(map[string]*session),
		jobs:       make(map[string]*job),
		baseCtx:    ctx,
		cancelJobs: cancel,
	}
	if s.now == nil {
		s.now = time.Now
	}
	if s.ids == nil {
		s.ids = NewIDSource(0)
	}
	s.newSession = opts.NewSession
	if s.newSession == nil {
		s.newSession = func(o *midas.Options) *midas.Session {
			return midas.NewSession(nil, o)
		}
	}
	s.discover = func(ctx context.Context, sess *midas.Session) (*midas.Result, error) {
		return sess.DiscoverContext(ctx)
	}
	if opts.WrapDiscover != nil {
		s.discover = opts.WrapDiscover(s.discover)
	}
	return s
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// createSession registers a new session and, when a store is
// configured, opens its durable log — the create record (with
// optionsJSON, replayed at recovery) is on disk before the caller acks.
// The store call runs under s.mu: creation is rare, and holding the
// lock closes the window where a session would be visible with no
// durable existence.
func (s *Server) createSession(name string, opts *midas.Options, optionsJSON []byte) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if name == "" {
		for {
			s.nextSess++
			name = fmt.Sprintf("s%d", s.nextSess)
			if _, ok := s.sessions[name]; !ok {
				break
			}
		}
	} else if !nameRE.MatchString(name) {
		return nil, fmt.Errorf("invalid session name %q", name)
	}
	if _, ok := s.sessions[name]; ok {
		return nil, errExists
	}
	sn := &session{name: name, sess: s.newSession(opts)}
	if s.opts.Store != nil {
		l, err := s.opts.Store.Create(name, optionsJSON)
		if err != nil {
			return nil, fmt.Errorf("persisting session: %w", err)
		}
		sn.slog = l
	}
	s.sessions[name] = sn
	s.reg.Gauge("serve/sessions").Set(float64(len(s.sessions)))
	return sn, nil
}

func (s *Server) session(name string) *session {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sessions[name]
}

// deleteSession removes a session: deregister it (new requests 404
// immediately), cancel its in-flight discovery jobs and wait for them
// to wind down to their partial results, then tombstone and remove the
// session's durable files. ctx bounds the wait; on expiry the files are
// still removed — the jobs hold their own references and die with their
// canceled contexts.
func (s *Server) deleteSession(ctx context.Context, name string) (bool, error) {
	s.mu.Lock()
	sn, ok := s.sessions[name]
	if !ok {
		s.mu.Unlock()
		return false, nil
	}
	delete(s.sessions, name)
	s.reg.Gauge("serve/sessions").Set(float64(len(s.sessions)))
	var running []*job
	for _, j := range s.jobs {
		if j.session == name && j.statusNow() == StateRunning {
			running = append(running, j)
		}
	}
	s.mu.Unlock()

	var waitErr error
	for _, j := range running {
		j.mu.Lock()
		cancel, done := j.cancel, j.done
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		if done == nil {
			continue
		}
		select {
		case <-done:
		case <-ctx.Done():
			waitErr = ctx.Err()
		}
	}
	if len(running) > 0 {
		s.logger().InfoContext(ctx, "session jobs canceled for delete",
			"session", name, "jobs", len(running))
	}
	if sn.slog != nil {
		if err := sn.slog.Delete(); err != nil {
			return true, err
		}
	}
	return true, waitErr
}

// Drain puts the server in draining mode — discovery requests are
// refused with 503 — and waits for in-flight jobs to finish. If ctx
// expires first, the jobs' contexts are canceled (the pipeline returns
// partial results at the next hierarchy-level boundary) and Drain waits
// for them to wind down. It returns the number of jobs that were still
// running when draining began.
func (s *Server) Drain(ctx context.Context) int {
	s.ready.Store(false)
	s.mu.Lock()
	s.draining = true
	inFlight := int(s.running)
	s.mu.Unlock()
	s.reg.Gauge("serve/draining").Set(1)
	s.logger().InfoContext(ctx, "drain started", "in_flight", inFlight)

	done := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(done)
	}()
	canceled := false
	select {
	case <-done:
	case <-ctx.Done():
		canceled = true
		s.cancelJobs()
		<-done
	}
	s.snapshotAll(ctx)
	s.logger().InfoContext(ctx, "drain finished", "in_flight", inFlight, "canceled", canceled)
	return inFlight
}

// snapshotAll compacts every durable session: threshold snapshots still
// in flight are awaited, then each session gets a final snapshot so the
// next startup recovers without replay. Best-effort — a session whose
// snapshot fails still has its synced WAL.
func (s *Server) snapshotAll(ctx context.Context) {
	if s.opts.Store == nil {
		return
	}
	s.snapWG.Wait()
	s.mu.RLock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sn := range s.sessions {
		sessions = append(sessions, sn)
	}
	s.mu.RUnlock()
	for _, sn := range sessions {
		if sn.slog == nil {
			continue
		}
		sn.wmu.Lock()
		err := sn.slog.Snapshot(sn.sess)
		sn.wmu.Unlock()
		if err != nil {
			s.logger().WarnContext(ctx, "drain snapshot failed", "session", sn.name, "err", err)
		}
	}
}

// maybeSnapshot starts an async compacting snapshot when the session's
// WAL has outgrown the store's threshold — at most one per session at a
// time, taken under wmu so the snapshot sees a quiescent session.
// Mutations keep flowing while the marshaled state is written; only the
// segment swap holds the log lock.
func (s *Server) maybeSnapshot(sn *session) {
	if sn.slog == nil || !sn.slog.NeedsSnapshot() || !sn.snapping.CompareAndSwap(false, true) {
		return
	}
	s.snapWG.Add(1)
	go func() {
		defer s.snapWG.Done()
		defer sn.snapping.Store(false)
		sn.wmu.Lock()
		err := sn.slog.Snapshot(sn.sess)
		sn.wmu.Unlock()
		if err != nil {
			s.logger().Warn("snapshot failed", "session", sn.name, "err", err)
		}
	}()
}

// decodeStoredOptions rebuilds midas.Options from the options JSON a
// create record stored (the apiOptions request shape, kept verbatim),
// then lets the RestoreOptions seam re-attach what JSON cannot carry.
func (s *Server) decodeStoredOptions(optionsJSON []byte) (*midas.Options, error) {
	var opts *midas.Options
	if len(optionsJSON) > 0 && string(optionsJSON) != "null" {
		var api apiOptions
		if err := json.Unmarshal(optionsJSON, &api); err != nil {
			return nil, err
		}
		opts = api.toOptions()
	}
	if s.opts.RestoreOptions != nil {
		opts = s.opts.RestoreOptions(opts)
	}
	return opts, nil
}

// Recover restores every session the store holds from before the last
// shutdown or crash: verified sessions are registered (marked
// recovered, with the persisted result memoized when still current),
// sessions that fail verification are quarantined by the store and
// surface only in the returned Recovery. Call once, after New and
// before serving traffic.
func (s *Server) Recover(ctx context.Context) (*store.Recovery, error) {
	if s.opts.Store == nil {
		return &store.Recovery{}, nil
	}
	rec, err := s.opts.Store.Recover(ctx, s.decodeStoredOptions)
	if err != nil {
		return rec, err
	}
	s.mu.Lock()
	for _, r := range rec.Sessions {
		s.sessions[r.Name] = &session{name: r.Name, sess: r.Session, slog: r.Log, recovered: true}
	}
	s.reg.Gauge("serve/sessions").Set(float64(len(s.sessions)))
	s.reg.Gauge("serve/sessions/recovered").Set(float64(len(rec.Sessions)))
	s.reg.Gauge("serve/sessions/quarantined").Set(float64(len(rec.Quarantined)))
	s.mu.Unlock()
	return rec, nil
}

// SetReady flips the /readyz verdict. Binaries call SetReady(true) once
// the listener is bound; Drain flips it back off.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Tracer returns the tracer collecting the server's request spans.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// logger resolves the server's logger at call time, so a default
// installed after New (midas-serve's -log-level flag path) is still
// picked up.
func (s *Server) logger() *slog.Logger { return obs.LoggerOrDefault(s.log) }

// Close releases the server's job contexts. Safe after Drain.
func (s *Server) Close() { s.cancelJobs() }

// Metrics returns the registry the server reports into.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Handler returns the service mux: the JSON API under /api, a health
// probe at /healthz, and the shared telemetry endpoints (obs.Mount) on
// the same listener.
func (s *Server) Handler() *http.ServeMux {
	mux := http.NewServeMux()
	s.routes(mux)
	obs.Mount(mux, s.reg)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "midas-serve\n\n/api/sessions\n/api/jobs\n/healthz\n/readyz\n/metrics\n/debug/vars\n/debug/pprof/\n")
	})
	return mux
}
