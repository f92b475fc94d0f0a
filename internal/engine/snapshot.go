// Snapshot visibility machinery (DESIGN.md §5.10): the visible-seq watermark
// readers resolve at, the ref-counted registry of pinned sequences that
// flush/compaction retention consults, and the Snapshot handle giving
// consistent cross-partition reads.

package engine

import (
	"sort"
	"sync/atomic"
	"time"
)

// VisibleSeq reports the visibility watermark: the highest sequence whose
// batch (and every batch committed before it) is fully readable. A commit
// turn stores it once, after inserting its whole block.
func (db *DB) VisibleSeq() uint64 { return db.visible.Load() }

// acquireSeq pins seq in the snapshot registry: flush and compaction keep
// every version a pinned sequence can still read (retentionBounds).
func (db *DB) acquireSeq(seq uint64) {
	db.snapMu.Lock()
	db.snapRefs[seq]++
	db.snapMu.Unlock()
}

// releaseSeq drops one pin on seq.
func (db *DB) releaseSeq(seq uint64) {
	db.snapMu.Lock()
	if n := db.snapRefs[seq]; n <= 1 {
		delete(db.snapRefs, seq)
	} else {
		db.snapRefs[seq] = n - 1
	}
	db.snapMu.Unlock()
}

// beginRead opens a read at the current watermark and pins it for the
// operation's duration, so a concurrent flush cannot drop the version the
// read is about to resolve. Paired with endRead.
func (db *DB) beginRead() uint64 {
	db.snapMu.Lock()
	seq := db.visible.Load()
	db.snapRefs[seq]++
	db.snapMu.Unlock()
	return seq
}

// endRead releases a beginRead pin.
func (db *DB) endRead(seq uint64) { db.releaseSeq(seq) }

// retentionBounds returns the retention boundaries for flush/compaction:
// every pinned sequence plus the current watermark, sorted ascending. The
// watermark is always a boundary — versions above it belong to a turn that
// has not made them visible yet, so they must not shadow the currently
// visible version out of existence. With nothing pinned the
// result is just the watermark and retention degenerates to plain dedup.
//
// Invariant: all bounds ≤ the watermark read under snapMu. Pins are taken at
// the watermark under the same lock (beginRead, NewSnapshot), so every pin
// that exists is in the copy and every later pin lands at or above the
// largest bound — no reader can sit unlisted between two bounds, which is
// where the Retainer drops versions.
func (db *DB) retentionBounds() []uint64 {
	db.snapMu.Lock()
	bounds := make([]uint64, 0, len(db.snapRefs)+1)
	for s := range db.snapRefs {
		bounds = append(bounds, s)
	}
	bounds = append(bounds, db.visible.Load())
	db.snapMu.Unlock()
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	// Dedup (a snapshot at the watermark is common).
	out := bounds[:0]
	for i, b := range bounds {
		if i == 0 || b != bounds[i-1] {
			out = append(out, b)
		}
	}
	return out
}

// MinActiveSeq reports the lowest sequence pinned by an open snapshot or
// in-flight read, or the current watermark when nothing is pinned — the
// horizon below which flush and compaction are free to drop shadowed
// versions.
func (db *DB) MinActiveSeq() uint64 {
	db.snapMu.Lock()
	min := uint64(0)
	have := false
	for s := range db.snapRefs {
		if !have || s < min {
			min, have = s, true
		}
	}
	db.snapMu.Unlock()
	if !have {
		return db.visible.Load()
	}
	return min
}

// Snapshot is a consistent point-in-time view of the whole database: every
// read through it resolves at the same sequence across partitions and tiers,
// immune to concurrent writes, flushes, and compactions. Snapshots are
// registry-tracked: while one is open, flush and compaction retain the
// versions it can read. Close releases the pin; reads after Close return
// ErrClosed.
type Snapshot struct {
	db     *DB
	seq    uint64
	closed atomic.Bool
}

// NewSnapshot opens a snapshot at the current visibility watermark.
func (db *DB) NewSnapshot() (*Snapshot, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	db.snapMu.Lock()
	seq := db.visible.Load()
	db.snapRefs[seq]++
	db.snapMu.Unlock()
	s := &Snapshot{db: db, seq: seq}
	db.metrics.SnapshotsOpen.Add(1)
	db.metrics.MinActiveSeq.Store(db.MinActiveSeq())
	return s, nil
}

// NewSnapshotAt opens a snapshot pinned at an explicit sequence — the
// recovery-verification door: a crash-test oracle that recorded a snapshot's
// sequence before a power cut reopens the exact point-in-time view on the
// recovered engine. seq should not exceed the current watermark.
func (db *DB) NewSnapshotAt(seq uint64) (*Snapshot, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	db.acquireSeq(seq)
	s := &Snapshot{db: db, seq: seq}
	db.metrics.SnapshotsOpen.Add(1)
	db.metrics.MinActiveSeq.Store(db.MinActiveSeq())
	return s, nil
}

// Seq reports the sequence this snapshot reads at.
func (s *Snapshot) Seq() uint64 { return s.seq }

// Close releases the snapshot's pin on its sequence. Safe to call twice.
func (s *Snapshot) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.db.releaseSeq(s.seq)
	s.db.metrics.SnapshotsOpen.Add(-1)
	s.db.metrics.MinActiveSeq.Store(s.db.MinActiveSeq())
}

// Get resolves key at the snapshot's sequence.
func (s *Snapshot) Get(key []byte) (value []byte, ok bool, err error) {
	if s.closed.Load() {
		return nil, false, ErrClosed
	}
	return s.db.getAt(key, s.seq)
}

// MultiGet resolves many keys at the snapshot's sequence; semantics match
// DB.MultiGet.
func (s *Snapshot) MultiGet(keys [][]byte) ([]GetResult, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	return s.db.multiGetAt(keys, s.seq)
}

// Scan returns up to limit live pairs with start <= key < end as of the
// snapshot's sequence.
func (s *Snapshot) Scan(start, end []byte, limit int) ([]ScanResult, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	begin := time.Now()
	out, err := s.db.scanAt(start, end, limit, s.seq)
	if err == nil {
		s.db.metrics.SnapshotScanLatency.Record(time.Since(begin))
	}
	return out, err
}

// NewIterator opens a streaming iterator over [start, end) at the snapshot's
// sequence. The iterator holds its own registry pin, so it stays consistent
// even if the snapshot is closed first.
func (s *Snapshot) NewIterator(start, end []byte) (*Iterator, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	s.db.acquireSeq(s.seq) // the iterator owns its own pin; released by Close
	return s.db.newIteratorAt(start, end, s.seq)
}

// SnapshotsOpen reports the number of snapshots currently open.
func (db *DB) SnapshotsOpen() int64 { return db.metrics.SnapshotsOpen.Load() }
