package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"midas"
	"midas/internal/obs"
)

// Job states. A deadline or disconnect mid-discovery yields
// StatePartial — the pipeline hands back the slices finalized so far —
// so a bounded request degrades instead of hanging or vanishing.
const (
	StateRunning = "running"
	StateDone    = "done"
	StatePartial = "partial"
	StateError   = "error"
)

var (
	errExists    = errors.New("session already exists")
	errSaturated = errors.New("discovery capacity saturated")
	errDraining  = errors.New("server is draining")
)

// job is one discovery run, sync or async. Poll via GET /api/jobs/{id};
// the result stays fetchable after completion.
type job struct {
	id      string
	session string
	request string // ID of the request that started it
	trace   int64  // trace holding the job's spans; 0 = none (cache hit)

	// cancel aborts the job's context and done closes when the job body
	// has returned — how session deletion stops in-flight discoveries
	// and waits them out. Both nil for cache-hit jobs, which never run.
	// Guarded by mu: the job is in the registry before they are set.
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	status   string
	result   *midas.Result
	err      error
	cached   bool
	started  time.Time
	finished time.Time
	profile  *jobProfile // folded from the trace on first /profile GET
}

// finish finalizes the job at now (the server's clock seam, so skewed
// soak clocks stamp consistently with started).
func (j *job) finish(now time.Time, res *midas.Result, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.result = res
	j.err = err
	j.finished = now
	switch {
	case err == nil:
		j.status = StateDone
	case res != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)):
		j.status = StatePartial
	default:
		j.status = StateError
	}
}

// newJob registers a job for the session. Callers hold no server locks.
func (s *Server) newJob(sessionName string) *job {
	j := &job{
		id:      s.ids.JobID(),
		session: sessionName,
		status:  StateRunning,
		started: s.now(),
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
	return j
}

func (s *Server) job(id string) *job {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.jobs[id]
}

// acquire claims one discovery slot, or reports saturation/draining.
func (s *Server) acquire() error {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	if draining {
		return errDraining
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
		s.reg.Counter("serve/shed").Inc()
		return errSaturated
	}
}

func (s *Server) release() { <-s.sem }

func (s *Server) trackRunning() (untrack func()) {
	adjust := func(d int64) {
		s.mu.Lock()
		s.running += d
		s.reg.Gauge("serve/jobs/running").Set(float64(s.running))
		s.mu.Unlock()
	}
	adjust(1)
	return func() { adjust(-1) }
}

// execute runs one discovery under ctx, persists the result the
// session memoized when the server has a store, and finalizes the job.
// The session memoizes only a complete result, stamped with the
// fingerprint it ran at, and the memo is persisted only while the
// session is still there. A completed discovery that reused cached
// per-source detection results from the previous run counts as a
// partial cache hit (serve/cache/partial): the request missed the memo
// but most of the detection work was served from the session's
// incremental state.
func (s *Server) execute(ctx context.Context, sn *session, j *job) {
	s.logger().InfoContext(ctx, "job started")
	res, err := s.discover(ctx, sn.sess)
	if err == nil && res != nil {
		if sn.slog != nil {
			if memo := sn.sess.Cached(); memo != nil {
				sn.slog.SaveCache(memo)
			}
		}
		if res.SourcesReused > 0 {
			s.reg.Counter("serve/cache/partial").Inc()
		}
	}
	j.finish(s.now(), res, err)
	s.reg.Counter("serve/jobs/finished").Inc()
	j.mu.Lock()
	status, elapsed := j.status, j.finished.Sub(j.started)
	j.mu.Unlock()
	kv := []any{"status", status, "dur", elapsed}
	if res != nil {
		kv = append(kv, "slices", len(res.Slices))
	}
	if err != nil {
		kv = append(kv, "err", err)
		s.logger().WarnContext(ctx, "job finished", kv...)
		return
	}
	s.logger().InfoContext(ctx, "job finished", kv...)
}

// startDiscover answers a discover request: a session whose memoized
// result is current → an immediately completed job; otherwise claim a
// slot and run, either synchronously under the request context
// (wait=true) or as a background job bounded by JobTimeout. timeout,
// when positive, tightens the discovery deadline in both modes.
func (s *Server) startDiscover(ctx context.Context, sn *session, wait bool, timeout time.Duration) (*job, error) {
	if res := sn.sess.Cached(); res != nil {
		s.reg.Counter("serve/cache/hit").Inc()
		j := s.newJob(sn.name)
		j.request = requestID(ctx)
		j.cached = true
		j.finish(s.now(), res, nil)
		s.logger().InfoContext(ctx, "job finished", "job", j.id, "session", sn.name, "cached", true)
		return j, nil
	}
	s.reg.Counter("serve/cache/miss").Inc()
	if err := s.acquire(); err != nil {
		return nil, err
	}
	j := s.newJob(sn.name)
	j.request = requestID(ctx)

	// The job's span starts under the request span, so the request is
	// the root of one trace holding the job and every framework span
	// beneath it — including for async jobs, whose context below derives
	// from baseCtx (it must outlive the request) but explicitly carries
	// the job span across that detach.
	_, jspan := s.tracer.StartSpan(ctx, "serve/job")
	jspan.Arg("job", j.id).Arg("session", sn.name).Arg("request", j.request)
	j.trace = jspan.TraceID()

	if wait {
		// Synchronous discoveries are jobs too: they join jobsWG so
		// Drain waits for them, and — since they run under the request
		// context, out of reach of the baseCtx cancellation that stops
		// async jobs at the drain deadline — baseCtx is bridged into
		// their cancel func, so an expiring drain ends them with
		// partial results instead of returning while they still run.
		s.jobsWG.Add(1)
		defer s.jobsWG.Done()
		defer s.release()
		runCtx, cancel := withTimeout(ctx, timeout)
		defer cancel()
		stop := context.AfterFunc(s.baseCtx, cancel)
		defer stop()
		done := make(chan struct{})
		defer close(done)
		j.mu.Lock()
		j.cancel, j.done = cancel, done
		j.mu.Unlock()
		runCtx = obs.ContextWithSpan(runCtx, jspan)
		runCtx = obs.ContextWithLogFields(runCtx, "job", j.id, "session", sn.name)
		defer s.trackRunning()()
		s.execute(runCtx, sn, j)
		jspan.Arg("status", j.statusNow()).End()
		return j, nil
	}
	if timeout <= 0 {
		timeout = s.opts.JobTimeout
	}
	jobCtx, cancel := withTimeout(s.baseCtx, timeout)
	jobCtx = obs.ContextWithSpan(jobCtx, jspan)
	jobCtx = obs.ContextWithLogFields(jobCtx,
		"request", j.request, "job", j.id, "session", sn.name)
	done := make(chan struct{})
	j.mu.Lock()
	j.cancel, j.done = cancel, done
	j.mu.Unlock()
	// The job counts as running from here, not from when its goroutine
	// is first scheduled, so a Drain right after the 202 sees it.
	untrack := s.trackRunning()
	s.jobsWG.Add(1)
	go func() {
		defer s.jobsWG.Done()
		defer untrack()
		defer close(done)
		defer cancel()
		defer s.release()
		s.execute(jobCtx, sn, j)
		jspan.Arg("status", j.statusNow()).End()
	}()
	return j, nil
}

func (j *job) statusNow() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

func withTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return context.WithCancel(ctx)
}
