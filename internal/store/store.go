// Package store is the durability subsystem of the serving path: a
// per-session write-ahead log of the confirmed mutation stream —
// session creation with options, KB bulk loads by content, AddFacts
// batches, Absorbs — plus periodic compacting snapshots, so recovery
// after a crash is snapshot-load + short log replay instead of
// full-history replay.
//
// Layout under the data directory:
//
//	sessions/<name>/wal-<seq>.log    WAL segments (checksummed frames)
//	sessions/<name>/snap-<seq>.snap  snapshots (fingerprint-stamped)
//	sessions/<name>/cache.bin        persisted result memo
//	trash/                           tombstoned deletes, emptied on open
//	quarantine/                      sessions recovery refused to serve
//
// A snapshot with sequence S captures the session state through the end
// of segment S−1; recovery loads the newest valid snapshot, verifies
// the restored session's Fingerprint() against the stamp, and replays
// segments ≥ S in order, tolerating a torn tail in the final segment
// (the only place a tear can legally occur). Because the snapshot
// serializes interning dictionaries verbatim and replayed mutations
// re-intern identically, the recovered session is fingerprint- and
// slice-identical to the crashed one. Sessions that fail verification
// or replay are quarantined — moved aside, never served, never lost.
//
// Appends are group-committed: with the default batch policy, an
// append waits for the fsync that covers its record, and one fsync
// acknowledges every record written before it — hot ingest across
// sessions is not serialized on the disk.
package store

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"midas/internal/obs"
)

// Policy selects when WAL appends reach the disk.
type Policy int

const (
	// PolicyBatch (default) group-commits: an append returns once an
	// fsync covering its record completes; concurrent appends share
	// fsyncs. Bounded ack latency, bounded data loss (none on process
	// kill, one batch interval on OS crash).
	PolicyBatch Policy = iota
	// PolicyAlways fsyncs before every ack. Maximum durability, one
	// fsync per mutation.
	PolicyAlways
	// PolicyNone never fsyncs on the append path. Process-kill safe
	// (page cache), not OS-crash safe; snapshots still sync.
	PolicyNone
)

func (p Policy) String() string {
	switch p {
	case PolicyAlways:
		return "always"
	case PolicyNone:
		return "none"
	default:
		return "batch"
	}
}

// ParsePolicy parses the -fsync flag values always|batch|none.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return PolicyAlways, nil
	case "batch", "":
		return PolicyBatch, nil
	case "none":
		return PolicyNone, nil
	}
	return PolicyBatch, fmt.Errorf("unknown fsync policy %q (want always|batch|none)", s)
}

// Options configures a Store.
type Options struct {
	// Dir is the data directory; created if absent.
	Dir string
	// Fsync is the append durability policy. Default: PolicyBatch.
	Fsync Policy
	// BatchInterval is the group-commit window under PolicyBatch: how
	// long the syncer collects appends before one fsync acknowledges
	// them all. Default: 2ms.
	BatchInterval time.Duration
	// SnapshotBytes is the per-session WAL size that triggers a
	// compacting snapshot. Default: 4 MiB.
	SnapshotBytes int64
	// Registry receives the store/* health series. Default: the
	// process-wide obs registry.
	Registry *obs.Registry
	// Logger receives recovery and snapshot records. Default: the
	// process-wide obs logger.
	Logger *slog.Logger
}

// Store owns a data directory of per-session logs. Open it once per
// process; Create and Recover hand out per-session Logs.
type Store struct {
	opts Options
	reg  *obs.Registry
	log  *slog.Logger

	mu     sync.Mutex
	logs   map[string]*Log
	closed bool
	frozen bool

	walTotal  atomic.Int64
	lastFsync atomic.Int64 // unix nanos
	lastSnap  atomic.Int64
	records   *obs.Counter
	fsyncs    *obs.Counter
	snaps     *obs.Counter

	stopGauges chan struct{}
	gaugeWG    sync.WaitGroup
}

// Open prepares the data directory and starts the health-gauge ticker.
// Call Recover before Create to restore prior sessions.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("store: empty data directory")
	}
	if opts.BatchInterval <= 0 {
		opts.BatchInterval = 2 * time.Millisecond
	}
	if opts.SnapshotBytes <= 0 {
		opts.SnapshotBytes = 4 << 20
	}
	st := &Store{
		opts: opts,
		reg:  opts.Registry.OrDefault(),
		log:  opts.Logger,
		logs: make(map[string]*Log),
	}
	st.records = st.reg.Counter("store/records")
	st.fsyncs = st.reg.Counter("store/fsyncs")
	st.snaps = st.reg.Counter("store/snapshots")
	if err := os.MkdirAll(st.sessionsDir(), 0o755); err != nil {
		return nil, err
	}
	now := time.Now().UnixNano()
	st.lastFsync.Store(now)
	st.lastSnap.Store(now)
	st.stopGauges = make(chan struct{})
	st.gaugeWG.Add(1)
	go st.gaugeLoop()
	return st, nil
}

func (st *Store) sessionsDir() string   { return filepath.Join(st.opts.Dir, "sessions") }
func (st *Store) trashDir() string      { return filepath.Join(st.opts.Dir, "trash") }
func (st *Store) quarantineDir() string { return filepath.Join(st.opts.Dir, "quarantine") }

func (st *Store) logger() *slog.Logger { return obs.LoggerOrDefault(st.log) }

// gaugeLoop publishes the store health gauges once a second: WAL bytes
// not yet compacted away, age of the last fsync, age of the last
// snapshot.
func (st *Store) gaugeLoop() {
	defer st.gaugeWG.Done()
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		st.publishGauges()
		select {
		case <-st.stopGauges:
			return
		case <-tick.C:
		}
	}
}

func (st *Store) publishGauges() {
	now := time.Now().UnixNano()
	st.reg.Gauge("store/wal_bytes").Set(float64(st.walTotal.Load()))
	st.reg.Gauge("store/last_fsync_age_seconds").Set(float64(now-st.lastFsync.Load()) / 1e9)
	st.reg.Gauge("store/snapshot_age_seconds").Set(float64(now-st.lastSnap.Load()) / 1e9)
}

func (st *Store) noteFsync() {
	st.lastFsync.Store(time.Now().UnixNano())
	st.fsyncs.Inc()
}

func (st *Store) noteSnapshot() {
	st.lastSnap.Store(time.Now().UnixNano())
	st.snaps.Inc()
}

// Create opens the durable log for a newly created session, appending
// (and per policy syncing) its create record before returning — the
// serving layer acks the creation only after this succeeds. The options
// JSON is stored verbatim and handed back to the decode hook at
// recovery.
func (st *Store) Create(name string, optionsJSON []byte) (*Log, error) {
	st.mu.Lock()
	if st.closed || st.frozen {
		st.mu.Unlock()
		return nil, ErrClosed
	}
	if _, ok := st.logs[name]; ok {
		st.mu.Unlock()
		return nil, fmt.Errorf("store: session %q already open", name)
	}
	st.mu.Unlock()
	l, err := st.newLog(name, optionsJSON)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	// The store may have died while the log was being built; a log
	// registered now would miss the Close/Kill sweep and leak its
	// syncer, so take it down the same way the sweep would have.
	if st.closed || st.frozen {
		frozen := st.frozen
		st.mu.Unlock()
		if frozen {
			l.freeze()
		} else {
			l.Close()
		}
		return nil, ErrClosed
	}
	st.logs[name] = l
	st.mu.Unlock()
	return l, nil
}

func (st *Store) dropLog(name string) {
	st.mu.Lock()
	delete(st.logs, name)
	st.mu.Unlock()
}

// trash atomically moves dir into the trash directory (the tombstone),
// returning the new path.
func (st *Store) trash(dir string) (string, error) {
	if err := os.MkdirAll(st.trashDir(), 0o755); err != nil {
		return "", err
	}
	dst := filepath.Join(st.trashDir(), fmt.Sprintf("%s-%d", filepath.Base(dir), time.Now().UnixNano()))
	if err := os.Rename(dir, dst); err != nil {
		return "", err
	}
	// Make the disappearance durable before reporting the delete done.
	if err := syncDir(st.sessionsDir()); err != nil {
		return "", err
	}
	return dst, nil
}

// Close flushes and closes every open log and stops the gauge ticker.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	logs := make([]*Log, 0, len(st.logs))
	for _, l := range st.logs {
		logs = append(logs, l)
	}
	st.mu.Unlock()
	var first error
	for _, l := range logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	st.stopTicker()
	return first
}

// Kill hard-stops the store without flushing: syncers die, blocked and
// future appends fail with ErrKilled, nothing is fsynced. It is the
// in-process stand-in for SIGKILL the soak harness's -restart mode
// uses; data already in the OS page cache survives, exactly as it
// would a real process kill.
func (st *Store) Kill() {
	st.mu.Lock()
	if st.closed || st.frozen {
		st.mu.Unlock()
		return
	}
	st.frozen = true
	logs := make([]*Log, 0, len(st.logs))
	for _, l := range st.logs {
		logs = append(logs, l)
	}
	st.mu.Unlock()
	for _, l := range logs {
		l.freeze()
	}
	st.stopTicker()
}

func (st *Store) stopTicker() {
	if st.stopGauges != nil {
		close(st.stopGauges)
		st.gaugeWG.Wait()
		st.stopGauges = nil
	}
}
