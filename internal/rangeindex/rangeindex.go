// Package rangeindex builds REMIX-style globally-sorted views over the
// immutable sorted sources of a partition (sorted PM level-0 tables, the SSD
// run or leveled runs). A view stores, per entry, only a one-byte source
// selector, plus sparse anchors: every ~segment-size entries the anchor
// records the user key at that position and the cursor offset of every
// source. A range scan binary-searches the anchors once, restores each
// source cursor in O(1), and then advances by following selectors — no
// per-step heap pushes and no per-step key comparisons between sources,
// which is where the merging-iterator scan path spends most of its time.
//
// Views are strictly an optimization: they are built from the same iterators
// the plain merge uses, and a view is selectors over those sources' own
// cursors: a cursor that fails, at build time or mid-scan, fails the build or
// the scan with its error, exactly as it would fail the merge. One that stops
// short of what the view recorded with no error of its own is ErrInconsistent.
//
//pmblade:deterministic package
package rangeindex

import (
	"bytes"
	"errors"
	"sync/atomic"

	"pmblade/internal/kv"
)

// ErrInconsistent reports that a view does not match its sources: a cursor
// ended before the entries its source counted, or the view selected, were
// read, and had no error of its own to explain it.
var ErrInconsistent = errors.New("rangeindex: view inconsistent with sources")

const (
	// srcMask extracts the source index from a selector byte.
	srcMask = 0x7f
	// dupBit marks an entry whose user key equals the previous view entry's
	// key (an older version). Scans skip dup entries without touching key
	// bytes.
	dupBit = 0x80
	// MaxSources is the selector encoding's source limit.
	MaxSources = srcMask
)

// Source is one immutable sorted input of a view.
type Source interface {
	// NewCursor opens a positionable iterator over the source. Cursors from
	// different calls share Pos token space.
	NewCursor() kv.PosIterator
	// Len is the total entry count, used to verify build completeness.
	Len() int
}

// anchor is a restore point: the user key and per-source cursor tokens at
// one entry position of the view.
type anchor struct {
	key []byte
	pos int
	cur []uint64
}

// View is an immutable sorted index over a fixed set of sources. It is
// reference counted: Build returns it holding the owner reference, readers
// acquire with TryRef and drop with Unref, and the final Unref runs the
// release hook (which un-references the underlying tables).
type View struct {
	epoch   uint64
	srcs    []Source
	sels    []byte
	anchors []anchor
	bytes   int64
	srcData int64
	refs    atomic.Int32
	release func()
}

// Build merges srcs into a view tagged with epoch. segTarget is the rough
// entry distance between anchors (anchors are only cut at user-key
// boundaries, so runs of versions can stretch a segment). release runs when
// the last reference is dropped; on error it is NOT run — the caller keeps
// ownership of the sources.
func Build(epoch uint64, srcs []Source, segTarget int, release func()) (*View, error) {
	if len(srcs) > MaxSources {
		return nil, errors.New("rangeindex: too many sources")
	}
	if segTarget <= 0 {
		segTarget = 32
	}
	expected := 0
	for _, s := range srcs {
		expected += s.Len()
	}
	v := &View{
		epoch:   epoch,
		srcs:    srcs,
		sels:    make([]byte, 0, expected),
		release: release,
	}
	cursors := make([]kv.PosIterator, len(srcs))
	for i, s := range srcs {
		cursors[i] = s.NewCursor()
		cursors[i].SeekToFirst()
	}
	var prevKey []byte
	havePrev := false
	lastAnchor := 0
	for {
		min := -1
		for i, c := range cursors {
			if !c.Valid() {
				continue
			}
			if min < 0 || kv.Compare(c.Entry(), cursors[min].Entry()) < 0 {
				min = i
			}
		}
		if min < 0 {
			break
		}
		e := cursors[min].Entry()
		sel := byte(min)
		if havePrev && bytes.Equal(e.Key, prevKey) {
			sel |= dupBit
		} else {
			if !havePrev || len(v.sels)-lastAnchor >= segTarget {
				// Anchor before consuming the entry: every cursor token then
				// denotes "first entry >= this anchor key" for its source.
				cur := make([]uint64, len(cursors))
				for i, c := range cursors {
					cur[i] = c.Pos()
				}
				v.anchors = append(v.anchors, anchor{
					key: append([]byte(nil), e.Key...),
					pos: len(v.sels),
					cur: cur,
				})
				lastAnchor = len(v.sels)
			}
			prevKey = append(prevKey[:0], e.Key...)
			havePrev = true
		}
		v.sels = append(v.sels, sel)
		cursors[min].Next()
	}
	for i := range cursors {
		if err := cursors[i].Err(); err != nil {
			return nil, err
		}
	}
	if len(v.sels) != expected {
		// A source yielded fewer entries than it counts: the view would
		// silently drop some, so refuse to build it.
		return nil, ErrInconsistent
	}
	v.bytes = int64(len(v.sels))
	for _, a := range v.anchors {
		v.bytes += int64(len(a.key) + 8*len(a.cur) + 24)
	}
	for _, s := range srcs {
		if d, ok := s.(interface{ DataBytes() int64 }); ok {
			v.srcData += d.DataBytes()
		}
	}
	v.refs.Store(1)
	return v, nil
}

// Epoch returns the install-epoch tag the view was built against.
func (v *View) Epoch() uint64 { return v.epoch }

// Len returns the total entry count (all versions).
func (v *View) Len() int { return len(v.sels) }

// Segments returns the number of anchors.
func (v *View) Segments() int { return len(v.anchors) }

// Bytes returns the approximate memory footprint of the view structure.
func (v *View) Bytes() int64 { return v.bytes }

// AvgEntryBytes estimates the stored footprint of one source entry
// (key+value plus amortized block overhead), from sources that report their
// data size. Zero when no source does or the view is empty.
func (v *View) AvgEntryBytes() int {
	if len(v.sels) == 0 {
		return 0
	}
	return int(v.srcData) / len(v.sels)
}

// TryRef acquires a read reference unless the view is already released.
func (v *View) TryRef() bool {
	for {
		n := v.refs.Load()
		if n <= 0 {
			return false
		}
		if v.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Unref drops a reference; the final drop runs the release hook.
func (v *View) Unref() {
	if v.refs.Add(-1) == 0 && v.release != nil {
		v.release()
	}
}

// Iter is a cursor-following iterator over a view. It implements
// kv.Iterator (yielding every version, in kv.Compare order), so it stands in
// for the stable sources wherever they would be merged; the engine's
// range-read cursor additionally uses SameAsPrev to skip stale versions
// without key comparisons.
type Iter struct {
	v       *View
	cursors []kv.PosIterator
	pos     int
	err     error
}

// NewIter opens an iterator. The caller must hold a view reference for the
// iterator's lifetime.
func (v *View) NewIter() *Iter {
	it := &Iter{v: v, cursors: make([]kv.PosIterator, len(v.srcs)), pos: len(v.sels)}
	for i, s := range v.srcs {
		it.cursors[i] = s.NewCursor()
	}
	return it
}

// Valid implements kv.Iterator.
func (it *Iter) Valid() bool { return it.err == nil && it.pos < len(it.v.sels) }

// Entry implements kv.Iterator.
func (it *Iter) Entry() kv.Entry {
	return it.cursors[it.v.sels[it.pos]&srcMask].Entry()
}

// SameAsPrev reports whether the current entry's user key equals the
// previous view entry's key (it is an older version of the same key).
func (it *Iter) SameAsPrev() bool { return it.v.sels[it.pos]&dupBit != 0 }

// Err implements kv.Iterator: the error of the cursor that stopped the walk,
// or ErrInconsistent if it stopped without one.
func (it *Iter) Err() error { return it.err }

// HintEntries forwards a bounded-scan readahead hint to every cursor that
// understands it (SSD-backed cursors cap their next device read span to
// roughly n entries). Call before the positioning seek.
func (it *Iter) HintEntries(n int) {
	for _, c := range it.cursors {
		if h, ok := c.(interface{ HintEntries(int) }); ok {
			h.HintEntries(n)
		}
	}
}

// check verifies that the selector at the current position points at a
// positioned cursor; a cursor that ran out early failed, or disagrees with
// the view.
func (it *Iter) check() {
	if it.pos >= len(it.v.sels) {
		return
	}
	if c := it.cursors[it.v.sels[it.pos]&srcMask]; !c.Valid() {
		if it.err = c.Err(); it.err == nil {
			it.err = ErrInconsistent
		}
	}
}

// Next implements kv.Iterator.
func (it *Iter) Next() {
	it.cursors[it.v.sels[it.pos]&srcMask].Next()
	it.pos++
	it.check()
}

// restore positions every cursor at anchor a and sets pos.
func (it *Iter) restore(a *anchor) {
	for i, c := range it.cursors {
		c.SetPos(a.cur[i])
	}
	it.pos = a.pos
	it.check()
}

// SeekToFirst implements kv.Iterator.
func (it *Iter) SeekToFirst() {
	it.err = nil
	if len(it.v.sels) == 0 {
		it.pos = 0
		return
	}
	it.restore(&it.v.anchors[0])
}

// SeekGE implements kv.Iterator: binary-search the anchors for the last one
// with key <= target, restore every cursor there in O(1), then follow
// selectors forward — at most one segment of entries, no per-source seeks.
func (it *Iter) SeekGE(key []byte) {
	it.err = nil
	if len(it.v.sels) == 0 {
		it.pos = 0
		return
	}
	lo, hi := 0, len(it.v.anchors)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(it.v.anchors[mid].key, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	a := lo - 1
	if a < 0 {
		a = 0
	}
	it.restore(&it.v.anchors[a])
	for it.Valid() && bytes.Compare(it.Entry().Key, key) < 0 {
		it.Next()
	}
}
