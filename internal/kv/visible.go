package kv

import (
	"bytes"
	"sort"
)

// VisibleIterator filters a stream in Compare order down to the entries
// visible at snapshot seq (Entry.Seq <= seq). It exists to run BEFORE
// NewDedupIterator: dedup keeps only the newest version of each key, so
// filtering visibility after it discards keys whose newest version is newer
// than the snapshot — the key vanishes instead of resolving to its older,
// still-visible version. Wrapping the merged source in a VisibleIterator
// makes the newest *visible* version the one dedup keeps.
type VisibleIterator struct {
	in  Iterator
	seq uint64
}

// NewVisibleIterator wraps in, which must already be positioned (the wrapper
// settles onto the first visible entry at or after the current position).
func NewVisibleIterator(in Iterator, seq uint64) *VisibleIterator {
	v := &VisibleIterator{in: in, seq: seq}
	v.settle()
	return v
}

// settle skips entries newer than the snapshot.
func (v *VisibleIterator) settle() {
	for v.in.Valid() && v.in.Entry().Seq > v.seq {
		v.in.Next()
	}
}

// Valid implements Iterator.
func (v *VisibleIterator) Valid() bool { return v.in.Valid() }

// Entry implements Iterator.
func (v *VisibleIterator) Entry() Entry { return v.in.Entry() }

// Err implements Iterator.
func (v *VisibleIterator) Err() error { return v.in.Err() }

// Next implements Iterator.
func (v *VisibleIterator) Next() {
	v.in.Next()
	v.settle()
}

// SeekToFirst implements Iterator.
func (v *VisibleIterator) SeekToFirst() { v.SeekGE(nil) }

// SeekGE implements Iterator; like Seek, it takes a nil key for the first.
func (v *VisibleIterator) SeekGE(key []byte) {
	Seek(key, v.in)
	v.settle()
}

// Retainer decides snapshot-aware version retention for flush and compaction
// over a stream in Compare order (key ascending, seq descending). bounds are
// the retention boundaries, ascending: the active snapshot sequences plus the
// current visibility watermark. The rule (RocksDB lineage):
//
//   - the newest version of each key is always kept (it serves every future
//     read);
//   - an older version is kept iff some boundary separates it from the next
//     newer kept version — i.e. a live snapshot (or the watermark) reads
//     exactly this version — or its sequence is above the highest boundary
//     (the watermark has not passed it yet, so an in-order publish may make
//     precisely this version the visible one);
//   - with dropTombstones (bottom level only), a retained tombstone is
//     elided iff it is the sole retained version of its key: nothing below
//     the bottom level can resurface the key, and no retained older version
//     would be wrongly exposed.
//
// With no active snapshots the boundary set is just the watermark and the
// rule degenerates to plain newest-version dedup — behavior and write
// amplification identical to a snapshot-free engine.
type Retainer struct {
	bounds         []uint64
	dropTombstones bool

	curKey      []byte
	haveKey     bool
	lastKeptSeq uint64
	pending     Entry // buffered bottom-level tombstone awaiting the sole-version decision
	havePending bool
	out         [2]Entry
}

// NewRetainer builds a Retainer; bounds must be sorted ascending.
func NewRetainer(bounds []uint64, dropTombstones bool) *Retainer {
	return &Retainer{bounds: bounds, dropTombstones: dropTombstones}
}

// StartsNewKey reports whether key differs from the current key group —
// callers that split output tables use it to avoid splitting between two
// versions of one key (sorted runs assume a key lives in exactly one table).
func (r *Retainer) StartsNewKey(key []byte) bool {
	return !r.haveKey || !bytes.Equal(key, r.curKey)
}

// Next consumes the stream's next entry and returns the entries to emit now,
// in order (0, 1, or 2: a buffered tombstone may flush ahead of e). The
// returned slice is valid until the next call; the last element may alias
// e's buffers, so emit before advancing the source.
func (r *Retainer) Next(e Entry) []Entry {
	n := 0
	if r.StartsNewKey(e.Key) {
		// The previous key's pending tombstone saw no retained older
		// version: it was the sole retained version, drop it.
		r.havePending = false
		r.curKey = append(r.curKey[:0], e.Key...)
		r.haveKey = true
		r.lastKeptSeq = e.Seq
	} else {
		if !r.retainOlder(e.Seq) {
			return nil
		}
		r.lastKeptSeq = e.Seq
	}
	if r.dropTombstones && e.Kind == KindDelete {
		if r.havePending {
			// An older tombstone is itself retained: the newer pending one
			// has a retained successor, so it must be emitted.
			r.out[0] = r.pending
			n = 1
		}
		r.pending = e.Clone()
		r.havePending = true
		return r.out[:n]
	}
	if r.havePending {
		r.out[0] = r.pending
		r.havePending = false
		n = 1
	}
	r.out[n] = e
	n++
	return r.out[:n]
}

// retainOlder decides whether a non-newest version at seq must be kept given
// the previously kept (newer) version at r.lastKeptSeq.
func (r *Retainer) retainOlder(seq uint64) bool {
	nb := len(r.bounds)
	if nb == 0 {
		return false
	}
	if seq > r.bounds[nb-1] {
		// Above the watermark: unpublished. The in-order publisher may stop
		// exactly here, making this the visible version for a future reader.
		return true
	}
	i := sort.Search(nb, func(i int) bool { return r.bounds[i] >= seq })
	return r.bounds[i] < r.lastKeptSeq
}

// RetainIterator applies a Retainer to an iterator in Compare order: the
// version filter of flush, compaction and — with no boundary, as
// NewDedupIterator builds it — of scans. Entry's Key and Value buffers are
// freshly allocated per entry and never reused, so callers may retain them
// past Next without copying (the engine's scan path relies on this to avoid
// a second copy).
type RetainIterator struct {
	in     Iterator
	r      Retainer
	queued Entry
	haveQ  bool
	cur    Entry
	valid  bool
}

// NewRetainIterator wraps in, which must already be positioned: the result
// stands on the first retained entry at or after that position.
func NewRetainIterator(in Iterator, bounds []uint64, dropTombstones bool) *RetainIterator {
	it := &RetainIterator{in: in, r: Retainer{bounds: bounds, dropTombstones: dropTombstones}}
	it.advance()
	return it
}

func (it *RetainIterator) advance() {
	if it.haveQ {
		it.cur, it.haveQ = it.queued, false
		it.valid = true
		return
	}
	for it.in.Valid() {
		emit := it.r.Next(it.in.Entry())
		switch len(emit) {
		case 0:
			it.in.Next()
			continue
		case 1:
			it.cur = emit[0].Clone()
		default:
			it.cur = emit[0].Clone()
			it.queued = emit[1].Clone()
			it.haveQ = true
		}
		it.valid = true
		it.in.Next()
		return
	}
	// Input exhausted (or failed: Err says); a still-pending tombstone was
	// the sole retained version of its key and is dropped with it.
	it.valid = false
}

// Valid implements Iterator.
func (it *RetainIterator) Valid() bool { return it.valid }

// Entry implements Iterator.
func (it *RetainIterator) Entry() Entry { return it.cur }

// Err implements Iterator.
func (it *RetainIterator) Err() error { return it.in.Err() }

// Next implements Iterator.
func (it *RetainIterator) Next() { it.advance() }

// SeekToFirst implements Iterator.
func (it *RetainIterator) SeekToFirst() { it.SeekGE(nil) }

// SeekGE implements Iterator; like Seek, it takes a nil key for the first.
func (it *RetainIterator) SeekGE(key []byte) {
	Seek(key, it.in)
	it.r = Retainer{bounds: it.r.bounds, dropTombstones: it.r.dropTombstones}
	it.haveQ = false
	it.advance()
}
