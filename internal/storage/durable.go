package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Durable-store metrics: checkpoint counts and latency, and what
// recovery actually replayed — the numbers that tell an operator how
// much work a crash would redo.
var (
	mCheckpointCount = obs.Default.Counter("storage.checkpoint.count")
	mCheckpointNs    = obs.Default.Histogram("storage.checkpoint.ns")
	mRecoverGroups   = obs.Default.Counter("storage.recover.groups")
	mRecoverTuples   = obs.Default.Counter("storage.recover.tuples")
)

// Fixed file names inside a durable store directory.
const (
	snapshotFile = "store.hrdm"
	walFile      = "wal.log"
)

// LogGroup is the durable store's core.GroupLogger: it serializes the
// group's ops and fsyncs them to the store's WAL before core applies
// anything. Commit calls it under the publish lock (shared) with every
// touched relation's mutex held, which gives the log two guarantees for
// free: no Pin interleaves between append and apply, and two groups
// touching a common relation reach the log in their apply order. An
// append error aborts the commit — nothing applied, nothing
// acknowledged. Core hands it only the ops of the store's own
// relations; it is not meant to be called directly.
func (s *Store) LogGroup(g *core.WriteGroup) error {
	payload, err := encodeGroupPayload(g)
	if err != nil {
		return err
	}
	lsn, err := s.log.Append(payload)
	if err != nil {
		return fmt.Errorf("storage: wal append: %w", err)
	}
	// Publish the new consistency point. Concurrent groups on disjoint
	// relations may race here, so only ever move the LSN forward.
	for {
		cur := s.lsn.Load()
		if lsn <= cur || s.lsn.CompareAndSwap(cur, lsn) {
			break
		}
	}
	return nil
}

// setLoggers makes l the logger of every relation in rels; nil stops
// logging them.
func setLoggers(rels []*core.Relation, l core.GroupLogger) {
	for _, r := range rels {
		r.SetLogger(l)
	}
}

// DurableOptions tunes OpenDurableOptions.
type DurableOptions struct {
	// NoSync skips the per-append fsync (group commits remain logged
	// and ordered, but a crash may lose the unsynced suffix). For
	// benchmarks that isolate fsync cost; production opens sync.
	NoSync bool
}

// RecoveryStats reports what OpenDurable found and redid.
type RecoveryStats struct {
	SnapshotLSN    uint64 // WAL LSN the snapshot file was consistent through
	ReplayedGroups int    // complete groups re-applied from the log
	ReplayedTuples int    // tuples staged across those groups
	TornBytes      int64  // trailing log bytes discarded as torn/corrupt
	LogBytes       int64  // log size after recovery
}

// Recovered reports whether opening had to redo any work (or discard a
// torn tail) — the CLI's cue to print a recovery banner.
func (rs RecoveryStats) Recovered() bool {
	return rs.ReplayedGroups > 0 || rs.TornBytes > 0
}

// OpenDurable opens (or creates) the durable store rooted at dir:
// load the last checkpoint snapshot if one exists, open the WAL
// (discarding a torn tail), replay every complete group after the
// snapshot, and checkpoint immediately if anything was replayed so the
// next open starts clean. From then on every committed write group
// touching the store's relations is fsynced to the log before it
// publishes; call Checkpoint to bound the log and Close when done.
func OpenDurable(dir string) (*Store, RecoveryStats, error) {
	return OpenDurableOptions(dir, DurableOptions{})
}

// OpenDurableOptions is OpenDurable with knobs.
func OpenDurableOptions(dir string, opts DurableOptions) (*Store, RecoveryStats, error) {
	var stats RecoveryStats
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, stats, fmt.Errorf("storage: open durable: %w", err)
	}
	snapPath := filepath.Join(dir, snapshotFile)
	st := NewStore()
	var snapLSN uint64
	if _, err := os.Stat(snapPath); err == nil {
		if st, snapLSN, err = loadFile(snapPath); err != nil {
			return nil, stats, err
		}
	} else if !os.IsNotExist(err) {
		return nil, stats, fmt.Errorf("storage: open durable: %w", err)
	}
	stats.SnapshotLSN = snapLSN

	log, err := wal.Open(filepath.Join(dir, walFile), wal.Options{NoSync: opts.NoSync})
	if err != nil {
		return nil, stats, err
	}
	st.lsn.Store(snapLSN)
	// A checkpoint may have truncated every record the snapshot covers;
	// keep the LSN clock ahead of the snapshot regardless.
	log.EnsureLSN(snapLSN)
	// Replay re-commits logged groups through the normal write-group
	// path. No relation has a logger yet (st.log is still nil, so Put
	// attaches none to relations the log creates), so the replayed
	// groups are not logged a second time.
	err = log.Replay(func(lsn uint64, payload []byte) error {
		if lsn <= snapLSN {
			// Already folded into the snapshot: a crash between the
			// checkpoint's snapshot rename and its log truncation leaves
			// these records behind, and they must not be applied twice.
			return nil
		}
		n, err := st.applyGroupPayload(payload)
		if err != nil {
			return fmt.Errorf("storage: replay lsn %d: %w", lsn, err)
		}
		st.lsn.Store(lsn)
		stats.ReplayedGroups++
		stats.ReplayedTuples += n
		return nil
	})
	if err != nil {
		log.Close()
		return nil, stats, err
	}
	st.dir = dir
	st.log = log
	setLoggers(st.relations(), st)
	stats.TornBytes = log.Stats().TornBytes
	mRecoverGroups.Add(uint64(stats.ReplayedGroups))
	mRecoverTuples.Add(uint64(stats.ReplayedTuples))
	if stats.ReplayedGroups > 0 {
		if err := st.Checkpoint(); err != nil {
			st.Close()
			return nil, stats, err
		}
	}
	stats.LogBytes = log.Size()
	st.RebuildIndexes()
	return st, stats, nil
}

// Durable reports whether the store carries a WAL.
func (s *Store) Durable() bool { return s.log != nil }

// Dir returns the durable store's directory ("" for in-memory stores).
func (s *Store) Dir() string { return s.dir }

// Checkpoint pins one consistent cut of the store, atomically writes
// it as the snapshot file, and truncates the WAL through the cut's
// LSN. Group commits keep flowing while the snapshot is written; their
// records carry LSNs above the cut and survive the truncation. Safe to
// crash at any point: the old snapshot plus the full log, or the new
// snapshot plus a log whose ≤LSN prefix replay skips, both recover the
// same state.
func (s *Store) Checkpoint() error {
	if s.log == nil {
		return fmt.Errorf("storage: checkpoint: store is not durable")
	}
	t0 := time.Now()
	cut := s.pinAll()
	if err := savePinned(filepath.Join(s.dir, snapshotFile), cut); err != nil {
		return err
	}
	if err := s.log.TruncateThrough(cut.lsn); err != nil {
		return err
	}
	mCheckpointCount.Inc()
	mCheckpointNs.ObserveSince(t0)
	return nil
}

// Close checkpoints the store, stops logging its relations (their
// later write groups commit in memory only), and closes the WAL. A
// write group racing Close either reads the logger before it is
// cleared (logged and folded into the final state at the next open) or
// fails its append against the closed log and aborts — never silently
// undurable. In-memory stores close as a no-op.
func (s *Store) Close() error {
	if s.log == nil {
		return nil
	}
	err := s.Checkpoint()
	setLoggers(s.relations(), nil)
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	return err
}
