// State snapshots: periodic durable captures of the replayable state, so
// restart replay begins at the snapshot's log offset instead of zero and the
// eventlog compactor can delete everything older.
//
// Consistency without stalls: instead of freezing the live loops to copy
// their state, the snapshot goroutine keeps an offline replica — a second
// state, restored from the log directory exactly as a restarting server
// would and advanced only by applying the records appended since. A snapshot
// at offset N is therefore *defined* as fold(records[0:N)), and the live
// shard loops never block on snapshot work.
package server

import (
	"errors"
	"sync"
	"time"

	"cosoft/internal/eventlog"
)

// snapshotter owns the fold replica and the snapshot/compaction cycle. All
// methods serialize on mu, so the periodic loop and a forced Snapshot never
// interleave.
type snapshotter struct {
	s  *Server
	mu sync.Mutex
	// fold is the replica, built by the first cycle: a server that never
	// snapshots never pays for one, and start-up decodes the newest snapshot
	// once, not twice.
	fold *state
	// off is the log byte offset the replica has consumed.
	off int64
	// lastSnapOff is the offset of the newest snapshot known to be on disk;
	// the SnapshotBytes trigger measures against it.
	lastSnapOff int64
}

// once runs one snapshot cycle: fold the log's new durable records into the
// replica, write a snapshot at the folded offset if the cadence (or force)
// says so, then compact. Reading stops cleanly at a torn or in-flight
// record — the next cycle resumes there. Fold reads go to the directory, not
// through the log handle, so they never count in server.log.replayed.
func (sn *snapshotter) once(force bool) error {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	dir := sn.s.elog.Dir()
	if sn.fold == nil {
		fold := newState(len(sn.s.shards), sn.s.opts.HistoryDepth, sn.s.slog.With("replica", "fold"))
		off, n, err := fold.restore(dir, nil)
		if err != nil {
			return err
		}
		sn.fold, sn.off = fold, off
		if n == 0 {
			// No tail: the replica stands exactly on the snapshot it came
			// from. With one, where that snapshot lies is not known, and
			// leaving zero at worst writes the next snapshot early.
			sn.lastSnapOff = off
		}
	}
	var err error
	sn.off, err = eventlog.ReplayDirFrom(dir, sn.off, func(rec eventlog.Record) error {
		// A record the replica refuses is one the live server refused or
		// start-up already reported.
		_ = sn.fold.apply(rec)
		return nil
	})
	if err != nil {
		return err
	}
	end := sn.off
	if !force {
		if end <= sn.lastSnapOff {
			return nil
		}
		iv, bytes := sn.s.opts.SnapshotInterval, sn.s.opts.SnapshotBytes
		// The loop ticks at SnapshotInterval when one is set, so reaching
		// here with new bytes is itself the time trigger; with only a byte
		// cadence, wait for the volume threshold.
		if iv <= 0 && (bytes <= 0 || end-sn.lastSnapOff < bytes) {
			return nil
		}
	}
	if err := sn.s.elog.WriteSnapshot(end, sn.fold.encode()); err != nil {
		return err
	}
	sn.lastSnapOff = end
	_, err = sn.s.elog.Compact()
	return err
}

// snapshotLoop drives the periodic snapshot/compaction cycle.
func (s *Server) snapshotLoop() {
	defer s.wg.Done()
	period := s.opts.SnapshotInterval
	if period <= 0 {
		// Byte-cadence only: poll the log size briefly.
		period = 100 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			err := s.snap.once(false)
			if err != nil && !errors.Is(err, eventlog.ErrClosed) {
				s.slog.Warn("snapshot cycle failed", "err", err)
			}
		case <-s.quit:
			return
		}
	}
}

// Snapshot forces one synchronous snapshot+compaction cycle at the log's
// current durable offset. Errors if the server has no event log.
func (s *Server) Snapshot() error {
	if s.snap == nil {
		return errors.New("server: no event log configured")
	}
	return s.snap.once(true)
}
