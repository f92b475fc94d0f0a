package kv

import "container/heap"

// MergingIterator merges several iterators in Compare order. Iterators
// supplied earlier take precedence at equal internal order (which cannot
// happen with unique sequence numbers, but keeps the merge deterministic).
// A source that fails fails the merge at once: the entries the others still
// hold may be versions that what it did not yield would have shadowed.
type MergingIterator struct {
	srcs []Iterator // every source, in rank order
	h    mergeHeap  // the sources positioned at an entry
}

type mergeItem struct {
	it   Iterator
	rank int
}

type mergeHeap []mergeItem

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	c := Compare(h[i].it.Entry(), h[j].it.Entry())
	if c != 0 {
		return c < 0
	}
	return h[i].rank < h[j].rank
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// NewMergingIterator combines its. The result starts positioned at the first
// entry (as if SeekToFirst had been called).
func NewMergingIterator(its ...Iterator) *MergingIterator {
	Seek(nil, its...)
	return NewMergingIteratorAt(its...)
}

// NewMergingIteratorAt combines sources that the caller has already
// positioned (e.g. with SeekGE); it does not rewind them.
func NewMergingIteratorAt(its ...Iterator) *MergingIterator {
	m := &MergingIterator{srcs: its}
	m.collect()
	return m
}

// collect rebuilds the heap from where the sources stand now.
func (m *MergingIterator) collect() {
	m.h = m.h[:0]
	if m.Err() != nil {
		return
	}
	for rank, it := range m.srcs {
		if it.Valid() {
			m.h = append(m.h, mergeItem{it: it, rank: rank})
		}
	}
	heap.Init(&m.h)
}

// Valid implements Iterator.
func (m *MergingIterator) Valid() bool { return len(m.h) > 0 }

// Entry implements Iterator.
func (m *MergingIterator) Entry() Entry { return m.h[0].it.Entry() }

// Err implements Iterator: the first source's error, in rank order.
func (m *MergingIterator) Err() error {
	for _, it := range m.srcs {
		if err := it.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Next implements Iterator.
func (m *MergingIterator) Next() {
	top := m.h[0].it
	top.Next()
	switch {
	case top.Valid():
		heap.Fix(&m.h, 0)
	case top.Err() != nil:
		m.h = m.h[:0]
	default:
		heap.Pop(&m.h)
	}
}

// SeekToFirst implements Iterator.
func (m *MergingIterator) SeekToFirst() { m.SeekGE(nil) }

// SeekGE implements Iterator; like Seek, it takes a nil key for the first.
// Every source is seeked, the ones that earlier advancement exhausted too:
// they may hold keys >= key.
func (m *MergingIterator) SeekGE(key []byte) {
	Seek(key, m.srcs...)
	m.collect()
}

// NewDedupIterator yields only the newest version of each user key of in
// (already positioned), optionally dropping tombstones — for a bottom-level
// merge, where deleted keys can vanish entirely. It is retention with no
// boundary: no older version has a reader, and a tombstone that may be
// dropped is always the sole retained version of its key.
func NewDedupIterator(in Iterator, dropTombstones bool) *RetainIterator {
	return NewRetainIterator(in, nil, dropTombstones)
}
