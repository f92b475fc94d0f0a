// Package memtable implements the DRAM tier of the LSM-tree: a skiplist
// ordered by internal key (user key ascending, sequence descending) with
// lock-free reads and mutex-serialized writes, plus size accounting that
// drives minor-compaction triggers.
package memtable

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"

	"pmblade/internal/kv"
)

const maxHeight = 12

type node struct {
	ik    []byte // encoded internal key (user key + inverted trailer)
	value []byte
	next  [maxHeight]atomic.Pointer[node]
	h     int
}

// Memtable is a sorted in-memory write buffer. Reads may run concurrently
// with one writer; writes are serialized internally.
type Memtable struct {
	head   *node
	mu     sync.Mutex
	rng    *rand.Rand
	size   atomic.Int64
	count  atomic.Int64
	height atomic.Int32
}

// New returns an empty memtable.
func New() *Memtable {
	m := &Memtable{
		head: &node{h: maxHeight},
		rng:  rand.New(rand.NewSource(1)),
	}
	m.height.Store(1)
	return m
}

// ApproximateSize reports bytes buffered (keys + values + per-entry
// overhead); the engine flushes when it exceeds the memtable budget.
func (m *Memtable) ApproximateSize() int64 { return m.size.Load() }

// Len reports the number of entries (versions, not unique keys).
func (m *Memtable) Len() int { return int(m.count.Load()) }

// Empty reports whether no entries have been added.
func (m *Memtable) Empty() bool { return m.count.Load() == 0 }

func (m *Memtable) randomHeight() int {
	h := 1
	for h < maxHeight && m.rng.Intn(4) == 0 {
		h++
	}
	return h
}

// Add inserts an entry. Sequence numbers make every internal key unique, so
// duplicates cannot collide.
func (m *Memtable) Add(e kv.Entry) {
	ik := kv.AppendInternalKey(nil, e.Key, e.Seq, e.Kind)
	val := append([]byte(nil), e.Value...)

	m.mu.Lock()
	defer m.mu.Unlock()

	var prev [maxHeight]*node
	x := m.head
	for level := int(m.height.Load()) - 1; level >= 0; level-- {
		for {
			nxt := x.next[level].Load()
			if nxt == nil || kv.CompareInternalKeys(nxt.ik, ik) >= 0 {
				break
			}
			x = nxt
		}
		prev[level] = x
	}
	h := m.randomHeight()
	if h > int(m.height.Load()) {
		for level := int(m.height.Load()); level < h; level++ {
			prev[level] = m.head
		}
		m.height.Store(int32(h))
	}
	n := &node{ik: ik, value: val, h: h}
	for level := 0; level < h; level++ {
		n.next[level].Store(prev[level].next[level].Load())
		prev[level].next[level].Store(n)
	}
	m.size.Add(int64(len(ik) + len(val) + 48))
	m.count.Add(1)
}

// findGE returns the first node with internal key >= ik. It returns the very
// pointer the level-0 walk compared: loading x.next[0] again could observe a
// node a concurrent Add has since linked in front of it, which sorts before
// ik.
func (m *Memtable) findGE(ik []byte) *node {
	x := m.head
	var nxt *node
	for level := int(m.height.Load()) - 1; level >= 0; level-- {
		for {
			nxt = x.next[level].Load()
			if nxt == nil || kv.CompareInternalKeys(nxt.ik, ik) >= 0 {
				break
			}
			x = nxt
		}
	}
	return nxt
}

// Get returns the newest version of key visible at snapshot seq. ok reports
// whether any version exists; the returned entry may be a tombstone.
func (m *Memtable) Get(key []byte, seq uint64) (e kv.Entry, ok bool) {
	// Seek to (key, seq, Delete): versions newer than seq sort strictly
	// before this probe, and both a Delete and a Set at exactly seq sort at
	// or after it, so findGE lands on the newest version visible at seq. The
	// probe lives on the stack (findGE does not retain it); only a key too
	// long for the buffer makes append allocate.
	var buf [128]byte
	n := m.findGE(kv.AppendInternalKey(buf[:0], key, seq, kv.KindDelete))
	if n == nil {
		return kv.Entry{}, false
	}
	ukey, s, kind := kv.ParseInternalKey(n.ik)
	if !bytes.Equal(ukey, key) {
		return kv.Entry{}, false
	}
	// A Set at seq sorts after (key, seq, Delete); accept any version <= seq.
	if s > seq {
		return kv.Entry{}, false
	}
	return kv.Entry{Key: ukey, Value: n.value, Seq: s, Kind: kind}, true
}

// Iterator walks the memtable in internal-key order. It is valid while the
// memtable is alive; concurrent Adds may or may not be observed.
type Iterator struct {
	m *Memtable
	n *node
}

// NewIterator returns an iterator positioned before the first entry; call
// SeekToFirst or SeekGE.
func (m *Memtable) NewIterator() *Iterator { return &Iterator{m: m} }

// Valid implements kv.Iterator.
func (it *Iterator) Valid() bool { return it.n != nil }

// Err implements kv.Iterator: a walk over DRAM cannot fail.
func (it *Iterator) Err() error { return nil }

// Next implements kv.Iterator.
func (it *Iterator) Next() { it.n = it.n.next[0].Load() }

// SeekToFirst implements kv.Iterator.
func (it *Iterator) SeekToFirst() { it.n = it.m.head.next[0].Load() }

// SeekGE implements kv.Iterator.
func (it *Iterator) SeekGE(key []byte) {
	probe := kv.AppendInternalKey(nil, key, kv.MaxSeq, kv.KindDelete)
	it.n = it.m.findGE(probe)
}

// Entry implements kv.Iterator.
func (it *Iterator) Entry() kv.Entry {
	ukey, seq, kind := kv.ParseInternalKey(it.n.ik)
	return kv.Entry{Key: ukey, Value: it.n.value, Seq: seq, Kind: kind}
}
