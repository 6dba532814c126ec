// Command midas-serve runs the MIDAS discovery engine as a long-lived
// HTTP service: named sessions, KB and fact ingestion, asynchronous
// discovery jobs with result caching, and slice absorption, with the
// live-telemetry endpoints on the same listener.
//
// Usage:
//
//	midas-serve [-listen :8080] [-max-discoveries N]
//	      [-request-timeout 30s] [-job-timeout 0]
//	      [-read-timeout 0] [-idle-timeout 2m]
//	      [-data-dir DIR] [-fsync batch] [-snapshot-bytes 4194304]
//	      [-drain-grace 0s] [-drain-timeout 30s]
//	      [-log-level info|debug|warn|error|off] [-log-format logfmt|json]
//	      [-stats final-stats.json]
//
// API (JSON; see README.md "Serving" for the full table):
//
//	POST   /api/sessions                  create a session
//	POST   /api/sessions/{s}/kb           load KB (TSV, ?format=binary|ntriples)
//	POST   /api/sessions/{s}/facts        add facts (JSON array or TSV)
//	POST   /api/sessions/{s}/discover     start a discovery job (?wait=true)
//	GET    /api/jobs/{id}                 poll a job
//	GET    /api/jobs/{id}/result          fetch the discovered slices
//	POST   /api/sessions/{s}/absorb       absorb result slices into the KB
//	GET    /api/sessions/{s}/progress     KB size and corpus coverage
//
// With -data-dir set, sessions are durable: every confirmed mutation is
// written to a per-session write-ahead log before the 2xx ack (-fsync
// picks the group-commit policy), compacting snapshots bound recovery
// time, and on startup every prior session is restored and verified
// against its stamped fingerprint — sessions that fail verification are
// quarantined under <data-dir>/quarantine and logged, never served and
// never deleted. Recovered sessions report "recovered": true in
// GET /api/sessions until their first post-restart mutation... and after
// it too: the flag marks provenance of this process's copy, not
// staleness.
//
// On SIGTERM/SIGINT the service first flips /readyz to 503 and keeps
// serving for -drain-grace (so load balancers observe the readiness
// drop and stop routing before the listener closes), then drains
// running discovery jobs (canceling them if -drain-timeout expires;
// canceled jobs finish with partial results), snapshots every durable
// session, writes the final metrics snapshot to -stats — runtime gauges
// included — and exits 0.
//
// Structured logs (lifecycle, recovery, access lines, job records) go
// to stderr as log/slog records; set -log-format json to pipe them
// through jq, -log-level debug to also log probe traffic, -log-level
// off to silence them. Only errors that end the process are printed as
// plain "midas-serve: ..." lines.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"midas/internal/obs"
	"midas/internal/serve"
	"midas/internal/store"
)

func main() {
	var (
		listen       = flag.String("listen", ":8080", "address to serve the API and telemetry on")
		maxDisc      = flag.Int("max-discoveries", 0, "max concurrent discovery jobs before shedding with 429 (0 = GOMAXPROCS)")
		reqTimeout   = flag.Duration("request-timeout", 30*time.Second, "per-request deadline (sync discoveries return partial results at it; -1s disables)")
		jobTimeout   = flag.Duration("job-timeout", 0, "async discovery job budget (0 = unlimited)")
		readTimeout  = flag.Duration("read-timeout", 0, "max duration for reading an entire request including the body (0 = header timeout only)")
		idleTimeout  = flag.Duration("idle-timeout", 2*time.Minute, "how long a keep-alive connection may sit idle before the server closes it")
		dataDir      = flag.String("data-dir", "", "durable session state directory: write-ahead logs, snapshots, crash recovery (empty = memory only)")
		fsyncPolicy  = flag.String("fsync", "batch", "WAL durability policy: always (fsync per mutation) | batch (group commit) | none (page cache only)")
		snapBytes    = flag.Int64("snapshot-bytes", 4<<20, "per-session WAL size that triggers a compacting snapshot")
		drainGrace   = flag.Duration("drain-grace", 0, "keep serving this long after readiness drops, so routers observe /readyz 503 before the listener closes")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for running jobs before canceling them")
		statsPath    = flag.String("stats", "", "write a final JSON metrics snapshot to this file on shutdown")
		logLevel     = flag.String("log-level", "info", "log verbosity: debug|info|warn|error|off")
		logFormat    = flag.String("log-format", "logfmt", "log encoding: logfmt|json")
	)
	flag.Parse()
	if err := obs.ConfigureLogging(os.Stderr, *logLevel, *logFormat); err != nil {
		fmt.Fprintln(os.Stderr, "midas-serve:", err)
		os.Exit(1)
	}
	log := obs.DefaultLogger()

	reg := obs.Default()
	rc := obs.NewRuntimeCollector(reg, 10*time.Second)

	var st *store.Store
	if *dataDir != "" {
		policy, err := store.ParsePolicy(*fsyncPolicy)
		if err != nil {
			fmt.Fprintln(os.Stderr, "midas-serve:", err)
			os.Exit(1)
		}
		st, err = store.Open(store.Options{
			Dir:           *dataDir,
			Fsync:         policy,
			SnapshotBytes: *snapBytes,
			Registry:      reg,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "midas-serve: opening data dir:", err)
			os.Exit(1)
		}
	}

	srv := serve.New(serve.Options{
		MaxInFlight:    *maxDisc,
		RequestTimeout: *reqTimeout,
		JobTimeout:     *jobTimeout,
		Registry:       reg,
		Store:          st,
	})

	// Recovery runs before the listener binds: by the time /readyz can
	// say yes, every surviving session answers with its pre-crash state.
	// The store logs what it recovered, quarantined, and dropped.
	if st != nil {
		if _, err := srv.Recover(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "midas-serve: recovering sessions:", err)
			os.Exit(1)
		}
	}

	// ReadHeaderTimeout bounds how long a connection may sit between
	// accept and a complete request header, so idle or trickling clients
	// cannot pin accept slots indefinitely (Slowloris); ReadTimeout
	// extends that bound over the body, and IdleTimeout reclaims
	// keep-alive connections parked between requests.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "midas-serve:", err)
		os.Exit(1)
	}
	srv.SetReady(true)
	log.Info("serving", "url", fmt.Sprintf("http://%s/", ln.Addr()))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "midas-serve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()

	// Shutdown sequence: readiness drops first and the listener keeps
	// serving for the grace window — routers see /readyz 503 (and
	// /healthz still 200) and stop sending traffic. Then drain running
	// jobs with the listener still open (so probes and job polls keep
	// answering mid-drain), snapshot and close the store, close the
	// listener, and flush the final snapshot with a last runtime-gauge
	// sample. Drain logs its own start and finish records.
	srv.SetReady(false)
	if *drainGrace > 0 {
		time.Sleep(*drainGrace)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	srv.Drain(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		httpSrv.Close()
	}
	srv.Close()
	if st != nil {
		if err := st.Close(); err != nil {
			log.Error("closing store failed", "err", err)
		}
	}
	rc.Stop()
	if *statsPath != "" {
		if err := reg.WriteFile(*statsPath); err != nil {
			fmt.Fprintln(os.Stderr, "midas-serve: writing final stats:", err)
			os.Exit(1)
		}
	}
}
