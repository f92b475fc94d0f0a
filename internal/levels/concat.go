package levels

import (
	"bytes"

	"pmblade/internal/kv"
	"pmblade/internal/sstable"
)

// ConcatIterator iterates a sorted, non-overlapping sequence of SSTables as
// one logical run. SeekGE binary-searches for the single covering table and
// opens only it — one block read instead of one per table, which matters for
// range scans (Figure 11(d)).
type ConcatIterator struct {
	tables []*sstable.Table
	ti     int
	cur    *sstable.Iterator
	scan   bool // open per-table scan iterators (readahead + cache fill)
	hint   int  // entry-count readahead hint forwarded to opened iterators
}

// NewConcatIterator wraps tables, which must be sorted by range and
// non-overlapping. The caller is responsible for keeping the tables
// referenced while iterating.
func NewConcatIterator(tables []*sstable.Table) *ConcatIterator {
	return &ConcatIterator{tables: tables, ti: -1}
}

// NewConcatScanIterator is NewConcatIterator with per-table scan iterators:
// sequential readahead through the block cache, for client range scans.
func NewConcatScanIterator(tables []*sstable.Table) *ConcatIterator {
	return &ConcatIterator{tables: tables, ti: -1, scan: true}
}

// open returns a fresh iterator over tables[ti] in the configured mode.
func (it *ConcatIterator) open(ti int) *sstable.Iterator {
	var cur *sstable.Iterator
	if it.scan {
		cur = it.tables[ti].NewScanIterator()
	} else {
		cur = it.tables[ti].NewIterator()
	}
	if it.hint > 0 {
		cur.HintEntries(it.hint)
	}
	return cur
}

// HintEntries caps the next readahead span of the current and subsequently
// opened table iterators to roughly n entries (see sstable HintEntries).
func (it *ConcatIterator) HintEntries(n int) {
	it.hint = n
	if it.cur != nil {
		it.cur.HintEntries(n)
	}
}

// Valid implements kv.Iterator.
func (it *ConcatIterator) Valid() bool { return it.cur != nil && it.cur.Valid() }

// Err implements kv.Iterator: the current table's error. The walk never
// leaves a table that failed, so that is the only one there can be.
func (it *ConcatIterator) Err() error {
	if it.cur == nil {
		return nil
	}
	return it.cur.Err()
}

// settle moves on from tables that have nothing left at the position, but
// not from one that failed: the run would go on without the rest of its keys.
func (it *ConcatIterator) settle() {
	for !it.cur.Valid() && it.cur.Err() == nil && it.ti+1 < len(it.tables) {
		it.ti++
		it.cur = it.open(it.ti)
		it.cur.SeekToFirst()
	}
}

// Entry implements kv.Iterator.
func (it *ConcatIterator) Entry() kv.Entry { return it.cur.Entry() }

// Next implements kv.Iterator.
func (it *ConcatIterator) Next() {
	it.cur.Next()
	it.settle()
}

// SeekToFirst implements kv.Iterator.
func (it *ConcatIterator) SeekToFirst() {
	if len(it.tables) == 0 {
		it.cur = nil
		return
	}
	it.ti = 0
	it.cur = it.open(0)
	it.cur.SeekToFirst()
	it.settle()
}

// posTableShift packs the table index above the inner iterator's
// (block, entry) token: 44 bits of inner position, 20 bits of table index.
const posTableShift = 44

// Pos implements kv.PosIterator: (table index, inner sstable position).
func (it *ConcatIterator) Pos() uint64 {
	if !it.Valid() {
		return kv.PosEOF
	}
	return uint64(it.ti)<<posTableShift | it.cur.Pos()
}

// SetPos implements kv.PosIterator, restoring a token captured from any
// ConcatIterator over the same table sequence.
func (it *ConcatIterator) SetPos(pos uint64) {
	if pos == kv.PosEOF {
		it.cur = nil
		return
	}
	ti := int(pos >> posTableShift)
	inner := pos & (1<<posTableShift - 1)
	if ti >= len(it.tables) {
		it.cur = nil
		return
	}
	if it.ti != ti || it.cur == nil {
		it.ti = ti
		it.cur = it.open(ti)
	}
	it.cur.SetPos(inner)
}

// SeekGE implements kv.Iterator: locate the first table whose largest key is
// >= key and seek within it.
func (it *ConcatIterator) SeekGE(key []byte) {
	lo, hi := 0, len(it.tables)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(it.tables[mid].Largest(), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(it.tables) {
		it.cur = nil
		return
	}
	it.ti = lo
	it.cur = it.open(lo)
	it.cur.SeekGE(key)
	it.settle()
}
