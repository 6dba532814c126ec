package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"midas"
	"midas/internal/binio"
)

// DecodeOptions turns a session's stored options JSON back into
// midas.Options. The serving layer supplies it (the JSON shape is the
// API's, which this package treats as opaque) and may decorate the
// result — the soak harness re-plants its fault-injecting detector
// through it.
type DecodeOptions func(optionsJSON []byte) (*midas.Options, error)

// Recovered is one session restored and verified by Recover.
type Recovered struct {
	Name    string
	Session *midas.Session
	// Fingerprint is the restored session's fingerprint (equal to the
	// snapshot stamp when one was loaded, recomputed after replay).
	Fingerprint uint64
	// Log continues the session's durable stream.
	Log *Log
	// Replayed counts WAL records applied on top of the snapshot;
	// TornTail reports that the final segment ended mid-record.
	Replayed int
	TornTail bool
}

// Quarantined is a session Recover refused to serve: its directory was
// moved to quarantine/ for inspection.
type Quarantined struct {
	Name string
	Dir  string
	Err  error
}

// Recovery is the outcome of a Recover pass.
type Recovery struct {
	Sessions    []Recovered
	Quarantined []Quarantined
	// Dropped lists session directories removed because they held no
	// durable create record — the creation was never acknowledged.
	Dropped []string
}

// Recover restores every session under the data directory: empty the
// tombstone trash, load each session's newest valid snapshot, verify
// the restored Fingerprint() against the stamp, replay the WAL
// segments the snapshot does not cover (tolerating a torn final
// record), and compact the result into a fresh snapshot so the next
// crash recovers from here. Sessions that fail verification or replay
// are quarantined, not served and not deleted. Call once, before
// Create.
func (st *Store) Recover(ctx context.Context, decode DecodeOptions) (*Recovery, error) {
	start := time.Now()
	os.RemoveAll(st.trashDir())
	entries, err := os.ReadDir(st.sessionsDir())
	if err != nil {
		return nil, err
	}
	rec := &Recovery{}
	for _, e := range entries {
		if err := ctx.Err(); err != nil {
			return rec, err
		}
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		dir := filepath.Join(st.sessionsDir(), name)
		r, err := st.recoverSession(name, dir, decode)
		switch {
		case err != nil:
			qdir, qerr := st.quarantine(dir)
			if qerr != nil {
				return rec, fmt.Errorf("quarantining session %q after %v: %w", name, err, qerr)
			}
			st.logger().WarnContext(ctx, "session quarantined", "session", name, "dir", qdir, "err", err)
			rec.Quarantined = append(rec.Quarantined, Quarantined{Name: name, Dir: qdir, Err: err})
		case r == nil:
			// No durable create record: the creation was never acked.
			os.RemoveAll(dir)
			rec.Dropped = append(rec.Dropped, name)
		default:
			st.mu.Lock()
			st.logs[name] = r.Log
			st.mu.Unlock()
			st.logger().InfoContext(ctx, "session recovered", "session", name,
				"fingerprint", fmt.Sprintf("%016x", r.Fingerprint),
				"replayed", r.Replayed, "torn_tail", r.TornTail)
			rec.Sessions = append(rec.Sessions, *r)
		}
	}
	st.logger().InfoContext(ctx, "recovery finished",
		"sessions", len(rec.Sessions), "quarantined", len(rec.Quarantined),
		"dropped", len(rec.Dropped), "dur", time.Since(start))
	return rec, nil
}

// quarantine moves dir aside under quarantine/, uniquified by time.
func (st *Store) quarantine(dir string) (string, error) {
	if err := os.MkdirAll(st.quarantineDir(), 0o755); err != nil {
		return "", err
	}
	dst := filepath.Join(st.quarantineDir(), fmt.Sprintf("%s-%d", filepath.Base(dir), time.Now().UnixNano()))
	if err := os.Rename(dir, dst); err != nil {
		return "", err
	}
	return dst, nil
}

// recoverSession restores one session directory. Returns (nil, nil)
// when the directory holds no acked creation and should be dropped.
func (st *Store) recoverSession(name, dir string, decode DecodeOptions) (*Recovered, error) {
	snapSeqs, err := snapshotSeqs(dir)
	if err != nil {
		return nil, err
	}
	segSeqs, err := segmentSeqs(dir)
	if err != nil {
		return nil, err
	}

	var (
		sess       *midas.Session
		options    []byte
		startSeq   uint64 = 1
		snapErr    error
		haveCreate bool
	)
	// Newest parseable snapshot wins. A snapshot is fsynced before its
	// rename, so damage here is disk corruption, not a crash artifact —
	// but an older snapshot cannot substitute (its covering segments
	// were deleted), so a bad newest snapshot quarantines below.
	if len(snapSeqs) > 0 {
		seq := snapSeqs[len(snapSeqs)-1]
		sess, options, snapErr = st.readSnapshot(name, filepath.Join(dir, snapshotName(seq)), decode)
		if snapErr != nil {
			return nil, fmt.Errorf("snapshot %d: %w", seq, snapErr)
		}
		startSeq = seq
		haveCreate = true
	}

	// Replay segments ≥ startSeq in order. They must be contiguous from
	// startSeq — a gap means the history is incomplete.
	var replay []uint64
	for _, seq := range segSeqs {
		if seq >= startSeq {
			replay = append(replay, seq)
		}
	}
	if sess != nil {
		if len(replay) == 0 || replay[0] != startSeq {
			return nil, fmt.Errorf("snapshot %d has no covering segment", startSeq)
		}
	} else if len(replay) == 0 {
		return nil, nil // empty directory: nothing acked
	}
	for i := 1; i < len(replay); i++ {
		if replay[i] != replay[i-1]+1 {
			return nil, fmt.Errorf("WAL gap: segment %d follows %d", replay[i], replay[i-1])
		}
	}

	replayed := 0
	torn := false
	for i, seq := range replay {
		final := i == len(replay)-1
		n, clean, err := st.replaySegment(dir, seq, &sess, &options, &haveCreate, decode)
		replayed += n
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", seq, err)
		}
		if !clean {
			if !final {
				// Tears are only legal at the tail of the final segment:
				// earlier segments were fully synced before rotation.
				return nil, fmt.Errorf("segment %d: torn record in non-final segment", seq)
			}
			torn = true
		}
	}
	if sess == nil {
		// Segments existed but held no create record (torn before the
		// creation was acked): never acknowledged, drop.
		return nil, nil
	}

	// Build the live log on the final segment, then compact: recovery
	// always leaves a fresh snapshot + empty segment behind, clearing
	// torn tails and bounding the next recovery's replay.
	activeSeq := replay[len(replay)-1]
	f, err := os.OpenFile(filepath.Join(dir, segmentName(activeSeq)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	size, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{st: st, name: name, dir: dir, options: options, seq: activeSeq, f: f, walBytes: size, written: size}
	l.cond = sync.NewCond(&l.mu)
	st.walTotal.Add(size)
	if err := l.Snapshot(sess); err != nil {
		l.f.Close()
		return nil, fmt.Errorf("post-recovery snapshot: %w", err)
	}
	l.startSyncer()

	// A persisted memo still current at the recovered fingerprint
	// answers the first repeat discovery after the restart.
	sess.Remember(loadCache(dir))
	return &Recovered{
		Name: name, Session: sess, Fingerprint: sess.Fingerprint(),
		Log: l, Replayed: replayed, TornTail: torn,
	}, nil
}

// replaySegment scans one segment, applying each record to the session
// (creating it at the opCreate record). haveCreate guards against
// duplicate or missing creates.
func (st *Store) replaySegment(dir string, seq uint64, sess **midas.Session, options *[]byte, haveCreate *bool, decode DecodeOptions) (int, bool, error) {
	// Segments are bounded by the snapshot threshold plus one batch, so
	// whole-file reads are fine and avoid mixing buffered readers.
	b, err := os.ReadFile(filepath.Join(dir, segmentName(seq)))
	if err != nil {
		return 0, false, err
	}
	if len(b) < len(walMagic) || string(b[:len(walMagic)]) != walMagic {
		// A torn header can only happen on the segment being created
		// when the crash hit; treat as an empty torn segment.
		return 0, false, nil
	}
	hdrSeq, n := binary.Uvarint(b[len(walMagic):])
	if n <= 0 {
		return 0, false, nil
	}
	if hdrSeq != seq {
		return 0, false, fmt.Errorf("segment header says %d", hdrSeq)
	}
	return scanRecords(bytes.NewReader(b[len(walMagic)+n:]), func(payload []byte) error {
		m, err := decodeMutation(payload)
		if err != nil {
			return err
		}
		if m.op == opCreate {
			if *haveCreate {
				return fmt.Errorf("duplicate create record")
			}
			opts, err := decode(m.options)
			if err != nil {
				return fmt.Errorf("decoding session options: %w", err)
			}
			*sess = midas.NewSession(nil, opts)
			*options = m.options
			*haveCreate = true
			return nil
		}
		if *sess == nil {
			return fmt.Errorf("mutation before create record")
		}
		return m.apply(*sess)
	})
}

// readSnapshot loads and verifies one snapshot file: parse the single
// framed record, decode the metadata, rebuild the session from the
// state block, and require the rebuilt Fingerprint() and KB epoch to
// equal the stamps — the recovery invariant that catches any divergence
// between serialization and the live session.
func (st *Store) readSnapshot(name, path string, decode DecodeOptions) (*midas.Session, []byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if len(b) < len(snapMagic) || string(b[:len(snapMagic)]) != snapMagic {
		return nil, nil, fmt.Errorf("%w: bad snapshot magic", binio.ErrCorrupt)
	}
	var payload []byte
	n, clean, err := scanRecords(bytes.NewReader(b[len(snapMagic):]), func(p []byte) error {
		payload = p
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if n != 1 || !clean {
		return nil, nil, fmt.Errorf("%w: snapshot is not one clean record", binio.ErrCorrupt)
	}
	br := binio.NewReader(bytes.NewReader(payload))
	br.MaxBytes = maxRecordBytes
	snapName := br.String()
	options := br.Bytes()
	fp := br.Uvarint()
	epoch := br.Uvarint()
	state := br.Bytes()
	if err := br.Err(); err != nil {
		return nil, nil, err
	}
	if snapName != name {
		return nil, nil, fmt.Errorf("%w: snapshot names session %q", binio.ErrCorrupt, snapName)
	}
	opts, err := decode(options)
	if err != nil {
		return nil, nil, fmt.Errorf("decoding session options: %w", err)
	}
	sess, err := midas.ReadState(bytes.NewReader(state), opts)
	if err != nil {
		return nil, nil, err
	}
	if got := sess.Fingerprint(); got != fp {
		return nil, nil, fmt.Errorf("fingerprint mismatch: restored %016x, stamped %016x", got, fp)
	}
	if got := sess.KBEpoch(); got != epoch {
		return nil, nil, fmt.Errorf("KB epoch mismatch: restored %d, stamped %d", got, epoch)
	}
	return sess, options, nil
}
