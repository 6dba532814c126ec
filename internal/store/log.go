package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"midas"
	"midas/internal/binio"
)

const (
	walMagic   = "MWL1"
	snapMagic  = "MSNP"
	cacheMagic = "MCAC"
	cacheName  = "cache.bin"
)

var (
	// ErrClosed reports an append to a closed (deleted or shut-down) log.
	ErrClosed = errors.New("store: log closed")
	// ErrKilled reports an append after Kill froze the store (the soak
	// harness's in-process SIGKILL).
	ErrKilled = errors.New("store: store killed")
)

func segmentName(seq uint64) string  { return fmt.Sprintf("wal-%08d.log", seq) }
func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%08d.snap", seq) }

// parseSeq extracts the sequence number from a segment or snapshot file
// name matching prefix...suffix.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	var seq uint64
	if _, err := fmt.Sscanf(mid, "%d", &seq); err != nil || mid == "" {
		return 0, false
	}
	return seq, true
}

// Log is the durable state of one session: a write-ahead log of its
// confirmed mutation stream in checksummed frames, segment-rotated by
// compacting snapshots, plus the session's persisted result memo.
// Appends are expected to be externally serialized against each other
// and against Snapshot (the serving layer holds a per-session mutation
// mutex); SaveCache may run concurrently with anything.
type Log struct {
	st      *Store
	name    string
	dir     string
	options []byte // create-time options JSON, stamped into snapshots

	mu       sync.Mutex
	f        *os.File
	seq      uint64 // active segment
	walBytes int64  // bytes in segments not yet covered by a snapshot
	written  int64  // monotonic append offset, across segments
	closed   bool
	frozen   bool

	// Group commit: batched appenders wait on cond until the syncer's
	// fsync covers their record (synced >= their end offset) or the log
	// dies. One fsync acknowledges every record written before it.
	cond    *sync.Cond
	synced  int64
	syncErr error
	syncReq chan struct{}
	stop    chan struct{}
	syncWG  sync.WaitGroup

	cmu sync.Mutex // serializes cache.bin writes
}

// header writes the segment header for seq.
func writeSegmentHeader(f *os.File, seq uint64) error {
	bw := binio.NewWriter(f)
	bw.Magic(walMagic)
	bw.Uvarint(seq)
	return bw.Flush()
}

// newLog opens a fresh log for a session being created: first segment,
// create record appended and (policy permitting) synced before return.
func (st *Store) newLog(name string, optionsJSON []byte) (*Log, error) {
	dir := filepath.Join(st.sessionsDir(), name)
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{st: st, name: name, dir: dir, options: append([]byte(nil), optionsJSON...), seq: 1}
	l.cond = sync.NewCond(&l.mu)
	f, err := os.OpenFile(filepath.Join(dir, segmentName(1)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	l.f = f
	if err := writeSegmentHeader(f, 1); err != nil {
		f.Close()
		return nil, err
	}
	l.startSyncer()
	if err := l.append(encodeCreate(name, optionsJSON)); err != nil {
		l.Close()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// startSyncer launches the group-commit goroutine (batch policy only).
func (l *Log) startSyncer() {
	if l.st.opts.Fsync != PolicyBatch {
		return
	}
	l.syncReq = make(chan struct{}, 1)
	l.stop = make(chan struct{})
	l.syncWG.Add(1)
	go func() {
		defer l.syncWG.Done()
		for {
			select {
			case <-l.stop:
				return
			case <-l.syncReq:
			}
			// The batching window: let concurrent appenders pile onto
			// this fsync instead of each paying their own.
			time.Sleep(l.st.opts.BatchInterval)
			l.doSync()
		}
	}()
}

// doSync fsyncs the active segment and releases every appender whose
// record it covers.
func (l *Log) doSync() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.doSyncLocked()
}

func (l *Log) doSyncLocked() {
	if l.closed || l.frozen || l.f == nil {
		return
	}
	target := l.written
	err := l.f.Sync()
	if err != nil {
		if l.syncErr == nil {
			l.syncErr = err
		}
	} else if target > l.synced {
		l.synced = target
		l.st.noteFsync()
	}
	l.cond.Broadcast()
}

// append frames, writes, and — per the store's fsync policy — makes
// payload durable before returning. Callers serialize appends.
func (l *Log) append(payload []byte) error {
	frame := frameRecord(payload)
	l.mu.Lock()
	if err := l.deadLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	if _, err := l.f.Write(frame); err != nil {
		l.mu.Unlock()
		return err
	}
	l.written += int64(len(frame))
	l.walBytes += int64(len(frame))
	myEnd := l.written
	l.st.walTotal.Add(int64(len(frame)))
	l.st.records.Inc()

	switch l.st.opts.Fsync {
	case PolicyNone:
		l.mu.Unlock()
		return nil
	case PolicyAlways:
		l.doSyncLocked()
		err := l.syncErr
		l.mu.Unlock()
		return err
	}
	// PolicyBatch: wake the syncer and wait for the fsync covering us.
	select {
	case l.syncReq <- struct{}{}:
	default:
	}
	for l.synced < myEnd && l.syncErr == nil {
		if err := l.deadLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
		l.cond.Wait()
	}
	err := l.syncErr
	l.mu.Unlock()
	return err
}

func (l *Log) deadLocked() error {
	switch {
	case l.frozen:
		return ErrKilled
	case l.closed:
		return ErrClosed
	}
	return nil
}

// AppendFacts logs an AddFacts batch.
func (l *Log) AppendFacts(facts []midas.Fact) error { return l.append(encodeFacts(facts)) }

// AppendKB logs a KB bulk load by content: the format tag and the exact
// body bytes the live load consumed.
func (l *Log) AppendKB(format string, body []byte) error { return l.append(encodeKB(format, body)) }

// AppendAbsorb logs a batch of absorbed slices.
func (l *Log) AppendAbsorb(slices []AbsorbSlice) error { return l.append(encodeAbsorb(slices)) }

// NeedsSnapshot reports whether the un-snapshotted WAL has crossed the
// store's snapshot threshold.
func (l *Log) NeedsSnapshot() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return !l.closed && !l.frozen && l.walBytes >= l.st.opts.SnapshotBytes
}

// Snapshot compacts the log: serialize sess (which must be quiescent
// with respect to mutations and appends — the caller holds the
// session's mutation mutex), stamp its fingerprint and KB epoch, write
// the snapshot with temp-file + rename atomicity, rotate to a fresh
// segment, and delete the files the snapshot supersedes. Every crash
// window recovers: before the rename the old snapshot + segments are
// intact; after it the stale files are ignored and re-deleted.
func (l *Log) Snapshot(sess *midas.Session) error {
	l.mu.Lock()
	if err := l.deadLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	newSeq := l.seq + 1
	l.mu.Unlock()

	fp := sess.Fingerprint()
	epoch := sess.KBEpoch()
	var state bytes.Buffer
	if err := sess.WriteState(&state); err != nil {
		return err
	}
	var payload bytes.Buffer
	bw := binio.NewWriter(&payload)
	bw.String(l.name)
	bw.Bytes(l.options)
	bw.Uvarint(fp)
	bw.Uvarint(epoch)
	bw.Bytes(state.Bytes())
	if err := bw.Flush(); err != nil {
		return err
	}

	tmp := filepath.Join(l.dir, snapshotName(newSeq)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	sw := binio.NewWriter(f)
	sw.Magic(snapMagic)
	if err := sw.Flush(); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(frameRecord(payload.Bytes())); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	// The new segment exists before the snapshot is named: a recovery
	// that sees snap-S can always replay from wal-S.
	nf, err := os.OpenFile(filepath.Join(l.dir, segmentName(newSeq)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := writeSegmentHeader(nf, newSeq); err != nil {
		nf.Close()
		return err
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		return err
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapshotName(newSeq))); err != nil {
		nf.Close()
		return err
	}
	if err := syncDir(l.dir); err != nil {
		nf.Close()
		return err
	}

	l.mu.Lock()
	if err := l.deadLocked(); err != nil {
		// The log died (freeze or delete) while the snapshot was being
		// written; leave its state files alone and keep the new segment
		// out of play.
		l.mu.Unlock()
		nf.Close()
		return err
	}
	old := l.f
	l.f = nf
	l.seq = newSeq
	l.st.walTotal.Add(-l.walBytes)
	l.walBytes = 0
	// Everything appended so far is durable through the snapshot.
	if l.written > l.synced {
		l.synced = l.written
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	if old != nil {
		old.Close()
	}

	l.removeSuperseded(newSeq)
	l.st.noteSnapshot()
	return nil
}

// removeSuperseded deletes segments and snapshots older than keepSeq,
// and stray snapshot temp files. Failures are ignored: recovery skips
// stale files by sequence, and re-deletes.
func (l *Log) removeSuperseded(keepSeq uint64) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(l.dir, name))
			continue
		}
		if seq, ok := parseSeq(name, "wal-", ".log"); ok && seq < keepSeq {
			os.Remove(filepath.Join(l.dir, name))
		}
		if seq, ok := parseSeq(name, "snap-", ".snap"); ok && seq < keepSeq {
			os.Remove(filepath.Join(l.dir, name))
		}
	}
}

// cachePayload is the persisted result memo: the session fingerprint
// the result was computed at, plus the result as JSON (float64 values
// round-trip exactly through Go's JSON encoding).
type cachePayload struct {
	Fingerprint uint64        `json:"fingerprint"`
	Result      *midas.Result `json:"result"`
}

// SaveCache persists a result the session memoized (Session.Cached),
// keyed by res.Fingerprint, with write + rename and no fsync: the page
// cache survives a process kill, and after an OS crash a missing or
// torn file merely leaves the recovered session without a memo.
func (l *Log) SaveCache(res *midas.Result) {
	l.mu.Lock()
	dead := l.closed || l.frozen
	l.mu.Unlock()
	if dead {
		return
	}
	body, err := json.Marshal(cachePayload{Fingerprint: res.Fingerprint, Result: res})
	if err != nil {
		return
	}
	var buf bytes.Buffer
	buf.WriteString(cacheMagic)
	buf.Write(frameRecord(body))

	l.cmu.Lock()
	defer l.cmu.Unlock()
	tmp := filepath.Join(l.dir, cacheName+".tmp")
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return
	}
	os.Rename(tmp, filepath.Join(l.dir, cacheName))
}

// loadCache reads a persisted result memo; any damage reads as nil.
func loadCache(dir string) *midas.Result {
	b, err := os.ReadFile(filepath.Join(dir, cacheName))
	if err != nil || len(b) < 4 || string(b[:4]) != cacheMagic {
		return nil
	}
	var body []byte
	n, clean, _ := scanRecords(bytes.NewReader(b[4:]), func(p []byte) error {
		body = p
		return nil
	})
	if n != 1 || !clean || body == nil {
		return nil
	}
	var cp cachePayload
	if json.Unmarshal(body, &cp) != nil || cp.Result == nil {
		return nil
	}
	return cp.Result
}

// Close stops the syncer and closes the active segment after a final
// fsync. Appends already in flight are released.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed || l.frozen {
		l.mu.Unlock()
		return nil
	}
	if l.f != nil && l.st.opts.Fsync != PolicyNone {
		l.doSyncLocked()
	}
	l.closed = true
	f := l.f
	l.f = nil
	l.cond.Broadcast()
	l.mu.Unlock()
	l.stopSyncer()
	if f != nil {
		return f.Close()
	}
	return nil
}

// freeze is the in-process hard-stop: no final fsync, the syncer dies,
// blocked appenders fail with ErrKilled, files close without flushing
// beyond what the OS already holds — the closest a live process gets to
// SIGKILL semantics.
func (l *Log) freeze() {
	l.mu.Lock()
	if l.closed || l.frozen {
		l.mu.Unlock()
		return
	}
	l.frozen = true
	f := l.f
	l.f = nil
	l.cond.Broadcast()
	l.mu.Unlock()
	l.stopSyncer()
	if f != nil {
		f.Close()
	}
}

func (l *Log) stopSyncer() {
	if l.stop != nil {
		close(l.stop)
		l.syncWG.Wait()
		l.stop = nil
	}
}

// Delete closes the log and removes the session's files: the directory
// is atomically renamed into the store's trash (the tombstone — a
// half-deleted session can never be half-recovered) and then removed;
// recovery empties any trash a crash left behind.
func (l *Log) Delete() error {
	l.mu.Lock()
	if l.frozen {
		l.mu.Unlock()
		return ErrKilled
	}
	alreadyClosed := l.closed
	l.closed = true
	f := l.f
	l.f = nil
	l.st.walTotal.Add(-l.walBytes)
	l.walBytes = 0
	l.cond.Broadcast()
	l.mu.Unlock()
	l.stopSyncer()
	if f != nil {
		f.Close()
	}
	if alreadyClosed {
		return nil
	}
	l.st.dropLog(l.name)
	trashed, err := l.st.trash(l.dir)
	if err != nil {
		return err
	}
	os.RemoveAll(trashed)
	return nil
}

// segmentSeqs lists the WAL segment sequence numbers in dir, ascending.
func segmentSeqs(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// snapshotSeqs lists snapshot sequence numbers in dir, ascending.
func snapshotSeqs(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "snap-", ".snap"); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
