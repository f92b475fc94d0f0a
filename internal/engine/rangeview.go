package engine

import (
	"bytes"

	"pmblade/internal/clock"
	"pmblade/internal/kv"
	"pmblade/internal/levels"
	"pmblade/internal/pmtable"
	"pmblade/internal/rangeindex"
	"pmblade/internal/sstable"
)

// viewSegTarget is the anchor spacing of partition views: small enough that
// a seek's selector walk stays short, large enough that anchor memory is a
// fraction of a selector byte per entry.
const viewSegTarget = 32

// pmViewSource adapts a sorted PM level-0 table.
type pmViewSource struct{ t *pmtable.Table }

func (s pmViewSource) NewCursor() kv.PosIterator { return s.t.NewIterator().(kv.PosIterator) }
func (s pmViewSource) Len() int                  { return s.t.Len() }
func (s pmViewSource) DataBytes() int64          { return s.t.SizeBytes() }

// runViewSource adapts one SSD run as a single source through a
// concatenating cursor.
type runViewSource struct{ tables []*sstable.Table }

func (s runViewSource) NewCursor() kv.PosIterator { return levels.NewConcatScanIterator(s.tables) }
func (s runViewSource) Len() int {
	n := 0
	for _, t := range s.tables {
		n += t.Len()
	}
	return n
}

func (s runViewSource) DataBytes() int64 {
	var n int64
	for _, t := range s.tables {
		n += t.SizeBytes()
	}
	return n
}

// viewOf returns the REMIX-style range view over s's stable half, or nil when
// there is none: the half is empty (a view would only add merge plumbing) or
// another reader is building it right now — then the cursor merges the stable
// tables itself, in the same loop over the same state. The view needs no
// reference of its own — s keeps its tables alive. A build that fails is a
// source that failed; merging without it would only read the same bytes again.
func (db *DB) viewOf(s *readState) (*rangeindex.View, error) {
	if v := s.view.Load(); v != nil {
		return v, nil
	}
	var srcs []rangeindex.Source
	for _, t := range s.pmSorted {
		srcs = append(srcs, pmViewSource{t})
	}
	for _, run := range s.runs {
		if len(run) > 0 {
			srcs = append(srcs, runViewSource{run})
		}
	}
	if len(srcs) == 0 || !s.building.CompareAndSwap(false, true) {
		return nil, nil
	}
	defer s.building.Store(false)
	if v := s.view.Load(); v != nil {
		return v, nil
	}
	sw := clock.NewStopwatch()
	v, err := rangeindex.Build(0, srcs, viewSegTarget, nil)
	if err != nil {
		return nil, err
	}
	db.metrics.RangeViewBuilds.Add(1)
	db.metrics.RangeViewBuildNanos.Add(sw.Elapsed().Nanoseconds())
	db.metrics.RangeViewSegments.Add(int64(v.Segments()))
	db.metrics.RangeViewBytes.Add(v.Bytes())
	s.view.Store(v)
	return v, nil
}

// scanArena allocates scan results in chunks: one bump-pointer append per
// key/value instead of one heap allocation each, which is the dominant cost
// of the dedup copy-out path. Chunks are never grown in place, so handed-out
// slices stay valid and capacity-clamped (callers cannot append into a
// neighbor).
type scanArena struct{ buf []byte }

const scanArenaChunk = 16 << 10

// reserve sizes the first chunk for an expected payload of n bytes, so a
// bounded scan whose footprint is predictable fills one exact allocation
// instead of spilling across power-of-two chunks.
func (a *scanArena) reserve(n int) {
	if n > 0 && a.buf == nil {
		a.buf = make([]byte, 0, n)
	}
}

func (a *scanArena) copy(b []byte) []byte {
	if len(a.buf)+len(b) > cap(a.buf) {
		n := scanArenaChunk
		for n < len(b) {
			n <<= 1
		}
		a.buf = make([]byte, 0, n)
	}
	off := len(a.buf)
	a.buf = append(a.buf, b...)
	return a.buf[off : off+len(b) : off+len(b)]
}

// cursor is the one range read of a partition: Scan, Snapshot.Scan and
// Iterator each open one on every partition they walk and drain it. It yields
// the newest version visible at seq of each live key in [from, end), in key
// order, as views into the sources — the drain copies out (DESIGN.md §5.5) —
// and a cursor that is not Valid has reached end, run out, or failed: Err says
// which, once, for the prologue and for both sides of the merge.
//
// The merge is 2-way. One side is the range view's selector walk over the
// stable half (no heap, no key comparisons between stable tables); the other a
// merging iterator over every tier the view does not cover. A state with no
// view — empty stable half, or a build in flight — runs the same loop with the
// stable tables on the heap side and nothing on the view's.
type cursor struct {
	s   *readState          // held from open to close
	vi  *rangeindex.Iter    // the view's side; nil when the state has no view
	ov  *kv.MergingIterator // the heap's side
	end []byte
	seq uint64

	// avgEntry is the view's estimate of one entry's footprint, 0 without a
	// view: what lets a bounded drain size its arena in one allocation.
	avgEntry int

	// consumedKey is the last user key DECIDED: its newest visible version was
	// seen — a live value, yielded, or a tombstone. An entry whose Seq postdates
	// the snapshot must NOT consume its key — an older, visible version may
	// follow and still owns the decision. lastFromView is true only when the
	// previous processed entry came from the view AND its key is the consumed
	// one; that is the precondition for both the dup-bit fast skip (same key as
	// the consumed view key) and the dup-bit-clear "new key by construction"
	// skip of the bytes.Equal in settle.
	consumedKey  []byte
	haveConsumed bool
	lastFromView bool

	e     kv.Entry // the entry yielded; its source is stepped by the next Next
	valid bool
	err   error
}

// open does the whole prologue of a partition read and positions c on the
// first entry it yields. budget is the number of entries the caller will take
// (0 = unbounded) — what a scan still misses, not its limit. c may be reused
// after close; it keeps only its key buffer.
func (c *cursor) open(db *DB, p *partition, from, end []byte, seq uint64, budget int) {
	*c = cursor{end: end, seq: seq, consumedKey: c.consumedKey[:0]}
	c.s = p.acquire()
	// A range read cannot route around a quarantined table with Bloom precision
	// the way point reads can: a partition whose quarantined key range overlaps
	// the read's makes whatever it would contribute untrustworthy. The guard
	// follows the walk — a partition the read never reaches cannot shadow its
	// result — and asks the state it reads: a table leaves it in the same
	// store that adds its corpse.
	if c.s.quarOverlaps(from, end) {
		db.metrics.UnavailableReads.Add(1)
		c.err = ErrUnavailable
		return
	}
	p.reads.Add(1)
	v, err := db.viewOf(c.s)
	if err != nil {
		c.err = err
		return
	}
	if v != nil {
		db.metrics.RangeViewHits.Add(1)
		c.vi, c.avgEntry = v.NewIter(), v.AvgEntryBytes()
	} else {
		db.metrics.RangeViewFallbacks.Add(1)
	}
	oits := c.s.unindexed(v != nil)
	if budget > 0 {
		// Bounded read: cap the sources' first readahead span to roughly what
		// will be consumed (slack for the seek's anchor walk and stale versions)
		// instead of a full ScanReadahead window. Must precede the seek — the
		// seek performs the first span read.
		hintEntries(oits, budget+viewSegTarget)
		if c.vi != nil {
			c.vi.HintEntries(budget + viewSegTarget)
		}
	}
	kv.Seek(from, oits...)
	c.ov = kv.NewMergingIteratorAt(oits...)
	c.check(c.ov)
	if c.vi != nil {
		kv.Seek(from, c.vi)
		c.check(c.vi)
	}
	c.settle()
}

// close releases the partition's state. It is safe to call twice, and on a
// cursor whose open failed.
func (c *cursor) close() {
	if c.s != nil {
		c.s.release()
		c.s = nil
	}
}

// hintEntries caps the next readahead span of every source that reads ahead
// (SSD-backed iterators) to roughly n entries.
func hintEntries(its []kv.Iterator, n int) {
	for _, it := range its {
		if h, ok := it.(interface{ HintEntries(int) }); ok {
			h.HintEntries(n)
		}
	}
}

// check is called wherever a side of the merge has moved. One that stopped
// because it failed ends the read there, with its error: what the other side
// still holds may be versions the entries it did not yield would have shadowed.
func (c *cursor) check(side kv.Iterator) {
	if !side.Valid() && c.err == nil {
		c.err = side.Err()
	}
}

// Valid reports whether c stands on an entry.
func (c *cursor) Valid() bool { return c.valid }

// Entry returns the entry c stands on: views, valid until the next Next or
// close.
func (c *cursor) Entry() kv.Entry { return c.e }

// Err returns the error that ended the read — ErrUnavailable from the
// quarantine guard, a failed view build, the first failure of either side —
// and nil when it reached end or ran out. It is sticky.
func (c *cursor) Err() error { return c.err }

// Next moves to the next live key's newest visible version.
func (c *cursor) Next() {
	if !c.valid {
		return
	}
	// The entry yielded consumed its key, so lastFromView is its side.
	c.step(c.lastFromView)
	c.settle()
}

// step advances one side of the merge.
func (c *cursor) step(view bool) {
	if view {
		c.vi.Next()
		c.check(c.vi)
	} else {
		c.ov.Next()
		c.check(c.ov)
	}
}

// settle walks the merge from where both sides stand to the next entry to
// yield, deciding each key at its newest visible version.
func (c *cursor) settle() {
	c.valid = false
	for c.err == nil {
		vOK, oOK := c.vi != nil && c.vi.Valid(), c.ov.Valid()
		if !vOK && !oOK {
			break
		}
		fromView := vOK && (!oOK || kv.Compare(c.vi.Entry(), c.ov.Entry()) <= 0)
		var e kv.Entry
		if fromView {
			if c.lastFromView && c.vi.SameAsPrev() {
				// Older version of the consumed key; skip without key compares.
				c.step(true)
				continue
			}
			e = c.vi.Entry()
		} else {
			e = c.ov.Entry()
		}
		if c.end != nil && bytes.Compare(e.Key, c.end) >= 0 {
			break
		}
		// From the view right after the view's consumed key with the dup bit
		// clear (else the fast skip above fired): keys differ by construction.
		decided := !(fromView && c.lastFromView) && c.haveConsumed && bytes.Equal(e.Key, c.consumedKey)
		if !decided && e.Seq <= c.seq {
			// Newest visible version of an undecided key: the decision is made
			// here whether it is a live value or a tombstone.
			c.consumedKey = append(c.consumedKey[:0], e.Key...)
			c.haveConsumed = true
			decided = true
			if e.Kind != kv.KindDelete {
				c.lastFromView = fromView
				c.e, c.valid = e, true
				return
			}
		}
		c.lastFromView = fromView && decided
		c.step(fromView)
	}
}
