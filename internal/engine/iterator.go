package engine

import (
	"bytes"

	"pmblade/internal/kv"
)

// Iterator streams live key-value pairs in key order across every tier and
// partition. It holds the current partition's read state while open; Close
// releases it.
// Iterators observe a snapshot sequence taken at creation: writes committed
// afterwards are not visible. The sequence is pinned in the snapshot
// registry until Close, so flush and compaction retain the versions the
// iterator can still read — sources acquired lazily at later partition hops
// therefore still hold the snapshot's versions.
//
// A source that fails stops the stream, and Err says so. Before the first
// entry is yielded a corrupt table is quarantined and the range read once more
// at the same sequence, as Get does; afterwards the stream cannot take back
// what it yielded: the error stands, the quarantine is for the next reader.
type Iterator struct {
	db  *DB
	seq uint64
	end []byte

	parts    []*partition
	pi       int
	merged   *kv.RetainIterator
	state    *readState // the open partition's state; merged reads its tables
	cur      ScanResult
	valid    bool
	closed   bool
	err      error
	firstKey []byte
}

// NewIterator opens an iterator over [start, end); nil bounds are unbounded.
// It fails with ErrUnavailable when any intersecting partition has a
// quarantined table overlapping the range: a streaming merge cannot route
// around a corpse with Bloom precision, so serving results that the
// quarantined data may shadow would be lying. Scan's guard follows its walk
// because a scan that reaches such a partition can still fail whole; a stream
// cannot take back what it has yielded, so the whole range is checked at open
// (and again at every hop, for a quarantine that lands mid-iteration).
func (db *DB) NewIterator(start, end []byte) (*Iterator, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	return db.newIteratorAt(start, end, db.beginRead())
}

// newIteratorAt opens an iterator at an explicit snapshot sequence. It takes
// ownership of one registry pin on seq (released by Close — including the
// error path below, which closes the half-open iterator).
func (db *DB) newIteratorAt(start, end []byte, seq uint64) (*Iterator, error) {
	if db.closed.Load() {
		db.releaseSeq(seq)
		return nil, ErrClosed
	}
	parts := db.partitionsInRange(start, end)
	for _, p := range parts {
		if p.quarOverlaps(start, end) {
			db.metrics.UnavailableReads.Add(1)
			db.releaseSeq(seq)
			return nil, ErrUnavailable
		}
	}
	it := &Iterator{
		db:       db,
		seq:      seq,
		end:      append([]byte(nil), end...),
		parts:    parts,
		firstKey: append([]byte(nil), start...),
	}
	if end == nil {
		it.end = nil
	}
	it.openPartition(0, start)
	it.advance()
	if it.err != nil && db.healCorruption(it.parts[it.pi], it.err) {
		it.err = nil
		it.openPartition(0, start)
		it.advance()
	}
	if it.err != nil {
		it.Close()
		return nil, it.err
	}
	return it, nil
}

// openPartition switches to partition index pi: it acquires the partition's
// state and seeks a merged, visibility-filtered, deduplicated iterator over it
// to from (nil = first key) — the overlay plus the range view's
// cursor-following iterator when the stable half has or can get one, else
// every table. The next partition is opened when the current one is exhausted,
// never ahead of need. The quarantine guard is re-applied at every hop: a
// quarantine that lands mid-iteration must stop the stream (Err reports
// ErrUnavailable) rather than silently serve results the corpse may shadow.
func (it *Iterator) openPartition(pi int, from []byte) {
	if it.state != nil {
		it.state.release()
		it.state = nil
	}
	it.merged = nil
	it.pi = pi
	if pi >= len(it.parts) {
		return
	}
	if it.parts[pi].quarOverlaps(it.firstKey, it.end) {
		it.db.metrics.UnavailableReads.Add(1)
		it.err = ErrUnavailable
		return
	}
	s := it.parts[pi].acquire()
	it.state = s
	v, err := it.db.viewOf(s)
	if err != nil {
		it.err = err
		return
	}
	if v != nil {
		it.db.metrics.RangeViewHits.Add(1)
	} else {
		it.db.metrics.RangeViewFallbacks.Add(1)
	}
	its := s.sources(v)
	kv.Seek(from, its...)
	// Visibility before dedup (see scanPartition): otherwise a key whose
	// newest version postdates the snapshot vanishes instead of resolving to
	// its older visible version.
	it.merged = kv.NewRetainIterator(kv.NewVisibleIterator(kv.NewMergingIteratorAt(its...), it.seq), nil, false)
}

// advance moves to the next live visible entry, crossing partitions.
func (it *Iterator) advance() {
	it.valid = false
	for it.err == nil && it.merged != nil {
		for ; it.merged.Valid(); it.merged.Next() {
			e := it.merged.Entry()
			if it.end != nil && bytes.Compare(e.Key, it.end) >= 0 {
				// Past the range: later partitions are even further right.
				return
			}
			if e.Kind == kv.KindDelete {
				continue
			}
			// The dedup owns freshly allocated buffers per entry (see
			// scanPartition): no copy.
			it.cur = ScanResult{Key: e.Key, Value: e.Value}
			it.valid = true
			it.merged.Next()
			return
		}
		// Partition exhausted, unless a source failed: then the partitions to
		// the right are not what comes next.
		if it.err = it.merged.Err(); it.err == nil {
			it.openPartition(it.pi+1, nil)
		}
	}
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.valid && !it.closed }

// Err reports why iteration stopped early: ErrUnavailable when a hop landed
// on a partition whose range is shadowed by a quarantined table, or the read
// or corruption error of the source that failed. nil on normal exhaustion.
func (it *Iterator) Err() error { return it.err }

// Key returns the current key; valid until Next.
func (it *Iterator) Key() []byte { return it.cur.Key }

// Value returns the current value; valid until Next.
func (it *Iterator) Value() []byte { return it.cur.Value }

// Next advances to the next entry.
func (it *Iterator) Next() {
	if it.closed || it.err != nil {
		it.valid = false
		return
	}
	it.advance()
	if it.err != nil {
		it.db.healCorruption(it.parts[it.pi], it.err) // for the next reader
	}
}

// Close releases the iterator's read state and its snapshot-registry pin. It
// is safe to call twice.
func (it *Iterator) Close() {
	if it.closed {
		return
	}
	it.closed = true
	it.valid = false
	it.db.releaseSeq(it.seq)
	if it.state != nil {
		it.state.release()
		it.state = nil
	}
}
