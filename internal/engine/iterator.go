package engine

import "bytes"

// Iterator streams live key-value pairs in key order across every tier and
// partition. It holds the current partition's read state while open; Close
// releases it.
// Iterators observe a snapshot sequence taken at creation: writes committed
// afterwards are not visible. The sequence is pinned in the snapshot
// registry until Close, so flush and compaction retain the versions the
// iterator can still read — sources acquired lazily at later partition hops
// therefore still hold the snapshot's versions.
//
// Key and Value return the iterator's own two buffers, overwritten by the next
// Next: a caller that keeps an entry copies it.
//
// A source that fails stops the stream, and Err says so. Before the first
// entry is yielded a corrupt table is quarantined and the range read once more
// at the same sequence, as Get does; afterwards the stream cannot take back
// what it yielded: the error stands, the quarantine is for the next reader.
type Iterator struct {
	db         *DB
	seq        uint64
	start, end []byte

	parts      []*partition // the partitions the range walks, in order
	pi         int
	cur        cursor // over parts[pi]
	key, value []byte // the current entry, copied out of cur
	valid      bool
	closed     bool
	err        error
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
	// The bounds are copied (nil stays nil): the caller may reuse its buffers
	// while the iterator hops.
	it := &Iterator{db: db, seq: seq, start: bytes.Clone(start), end: bytes.Clone(end), parts: db.span(start, end)}
	for _, p := range it.parts {
		if p.state.Load().quarOverlaps(start, end) {
			db.metrics.UnavailableReads.Add(1)
			it.Close()
			return nil, ErrUnavailable
		}
	}
	it.openPartition(0)
	it.advance()
	if it.err != nil && db.healCorruption(it.parts[it.pi], it.err) {
		it.err = nil
		it.openPartition(0)
		it.advance()
	}
	if it.err != nil {
		it.Close()
		return nil, it.err
	}
	return it, nil
}

// openPartition moves the cursor to partition index pi, never ahead of need:
// the next partition is opened when the current one is exhausted. The cursor's
// quarantine guard therefore runs again at every hop: a quarantine that lands
// mid-iteration stops the stream (Err reports ErrUnavailable) rather than
// silently serving results the corpse may shadow.
func (it *Iterator) openPartition(pi int) {
	it.cur.close()
	it.pi = pi
	if pi < len(it.parts) {
		it.cur.open(it.db, it.parts[pi], it.start, it.end, it.seq, 0)
	}
}

// advance moves past the current entry, if the iterator stands on one, to the
// next live visible entry, crossing partitions.
func (it *Iterator) advance() {
	if it.valid {
		it.cur.Next()
	}
	it.valid = false
	for it.err == nil && it.pi < len(it.parts) {
		if it.cur.Valid() {
			e := it.cur.Entry()
			it.key = append(it.key[:0], e.Key...)
			it.value = append(it.value[:0], e.Value...)
			it.valid = true
			return
		}
		// Partition exhausted, unless its read failed: then the partitions to
		// the right are not what comes next.
		if it.err = it.cur.Err(); it.err == nil {
			it.openPartition(it.pi + 1)
		}
	}
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.valid && !it.closed }

// Err reports why iteration stopped early: ErrUnavailable when a hop landed
// on a partition whose range is shadowed by a quarantined table, or the read
// or corruption error of the source that failed. nil on normal exhaustion.
func (it *Iterator) Err() error { return it.err }

// Key returns the current key.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value.
func (it *Iterator) Value() []byte { return it.value }

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
	it.cur.close()
}
