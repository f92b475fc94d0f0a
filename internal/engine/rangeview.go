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
// another reader is building it right now — then the caller takes the plain
// merge, which serves the same state unchanged. The view needs no reference of
// its own — s keeps its tables alive. A build that fails is a source that
// failed; the plain merge would only read the same bytes again.
func (db *DB) viewOf(s *readState) (*rangeindex.View, error) {
	if db.plainMerge {
		return nil, nil
	}
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

// scanView is scanPartition's fast path over state s and the view v of its
// stable half: the stable tables stream through the view's selector walk (no
// per-step heap pushes, no per-step key comparisons between stable sources)
// and only the mutable overlay goes through a merging iterator, in a 2-way
// merge. If either side fails, its error comes back with out restored to its
// input length. budget is the number of entries this partition may append
// (0 = unbounded) — what the scan still misses, not its limit — and sizes the
// readahead, the arena and the result slice.
func scanView(s *readState, v *rangeindex.View, start, end []byte, budget int, seq uint64, out []ScanResult) ([]ScanResult, error) {
	base := len(out)
	vi := v.NewIter()
	oits := s.overlay()
	if budget > 0 {
		// Bounded scan: cap the sources' first readahead span to roughly what
		// the scan will consume (slack for the seek's anchor walk and stale
		// versions) instead of a full ScanReadahead window. Must precede the
		// seek — the seek performs the first span read.
		vi.HintEntries(budget + viewSegTarget)
		hintEntries(oits, budget+viewSegTarget)
	}
	kv.Seek(start, vi)
	kv.Seek(start, oits...)
	ov := kv.NewMergingIteratorAt(oits...)
	var arena scanArena
	if budget > 0 && budget <= 4096 {
		// Right-size the result copies: the view knows its sources' average
		// entry footprint, so a bounded scan can fill one exact arena chunk
		// and one exact result slice instead of growing both geometrically.
		if avg := v.AvgEntryBytes(); avg > 0 {
			arena.reserve(budget*avg + 512)
		}
		if cap(out)-base < budget {
			grown := make([]ScanResult, base, base+budget)
			copy(grown, out)
			out = grown
		}
	}
	// consumedKey is the last user key DECIDED: its newest visible version was
	// seen and emitted (or was a tombstone). An entry whose Seq postdates the
	// snapshot must NOT consume its key — an older, visible version may follow
	// and still owns the decision. lastFromView is true only when the previous
	// processed entry came from the view AND its key is the consumed one; that
	// is the precondition for both the dup-bit fast skip (same key as the
	// consumed view key) and the dup-bit-clear "new key by construction" skip
	// of the bytes.Equal below.
	var consumedKey []byte
	haveConsumed := false
	lastFromView := false
	vOK, oOK := vi.Valid(), ov.Valid()
	for {
		if !vOK && !oOK {
			break
		}
		fromView := vOK && (!oOK || kv.Compare(vi.Entry(), ov.Entry()) <= 0)
		var e kv.Entry
		if fromView {
			if lastFromView && vi.SameAsPrev() {
				// Older version of the consumed key; skip without key compares.
				vi.Next()
				vOK = vi.Valid()
				continue
			}
			e = vi.Entry()
		} else {
			e = ov.Entry()
		}
		if end != nil && bytes.Compare(e.Key, end) >= 0 {
			break
		}
		var decided bool
		if fromView && lastFromView {
			// Dup bit clear (else the fast skip above fired) and the previous
			// view entry holds the consumed key: keys differ by construction.
			decided = false
		} else {
			decided = haveConsumed && bytes.Equal(e.Key, consumedKey)
		}
		consumed := decided
		if !decided && e.Seq <= seq {
			// Newest visible version of an undecided key: the decision is made
			// here whether it is a live value or a tombstone.
			consumedKey = append(consumedKey[:0], e.Key...)
			haveConsumed = true
			consumed = true
			if e.Kind != kv.KindDelete {
				out = append(out, ScanResult{Key: arena.copy(e.Key), Value: arena.copy(e.Value)})
				if budget > 0 && len(out)-base >= budget {
					break
				}
			}
		}
		lastFromView = fromView && consumed
		if fromView {
			vi.Next()
			vOK = vi.Valid()
		} else {
			ov.Next()
			oOK = ov.Valid()
		}
	}
	if err := vi.Err(); err != nil {
		return out[:base], err
	}
	if err := ov.Err(); err != nil {
		return out[:base], err
	}
	return out, nil
}
