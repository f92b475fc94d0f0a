package sstable

import (
	"container/list"
	"runtime"
	"sync"

	"pmblade/internal/ssd"
)

// BlockCache is a shared cache of decoded (crc-stripped) data blocks, keyed
// by (file, offset). It models RocksDB's block cache; Table I's "SSTable in
// cache" configuration reads through a cache large enough to hold the
// working set.
//
// An entry is the verified buffer the block was read into, not a copy of it,
// the way RocksDB caches the buffer it read: for an uncompressed block that
// is a view of the device's read (ssd.MapAt), for a compressed one the
// decompressed body. Neither is written again — the device rots a copy of a
// file, never the bytes it has handed out — so an entry keeps the bytes that
// were verified when it was read.
//
// The cache is sharded: a key hashes to one of N power-of-two shards, each
// with its own mutex, LRU list and capacity slice, so concurrent readers on
// different shards never contend. Each shard also keeps a per-file handle
// index, making DropFile O(blocks of that file) instead of O(cache).
type BlockCache struct {
	shards []cacheShard
	mask   uint64
}

type cacheShard struct {
	mu       sync.Mutex
	capacity int64
	used     int64                                  // guarded by: mu
	ll       *list.List                             // guarded by: mu
	files    map[ssd.FileID]map[int64]*list.Element // handle index; guarded by: mu

	hits      int64 // guarded by: mu
	misses    int64 // guarded by: mu
	evictions int64 // guarded by: mu
}

type cacheItem struct {
	file ssd.FileID
	off  int64
	body []byte
}

// CacheStats is a point-in-time snapshot of one shard's (or the aggregated)
// cache counters.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Used      int64
	Capacity  int64
}

// cacheShardCount picks the shard count for a capacity: a power of two near
// the core count, but never so many that a shard holds fewer than ~16 blocks
// (tiny shards thrash their LRU instead of caching).
func cacheShardCount(capacity int64) int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 64 {
		n <<= 1
	}
	for n > 1 && capacity/int64(n) < 16*BlockSize {
		n >>= 1
	}
	return n
}

// NewBlockCache creates a cache bounded to capacity bytes in total.
func NewBlockCache(capacity int64) *BlockCache {
	n := cacheShardCount(capacity)
	c := &BlockCache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
	per := capacity / int64(n)
	rem := capacity % int64(n)
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity = per
		if int64(i) < rem {
			s.capacity++
		}
		//pmblade:allow guardedby construction before the cache is published; no concurrency
		s.ll = list.New()
		//pmblade:allow guardedby construction before the cache is published; no concurrency
		s.files = make(map[ssd.FileID]map[int64]*list.Element)
	}
	return c
}

// shard routes a (file, offset) key to its shard by a mixed 64-bit hash:
// offsets within one file are block-aligned and files are small integers, so
// a finalizer-style mix is needed to spread them across shards.
func (c *BlockCache) shard(file ssd.FileID, off int64) *cacheShard {
	h := uint64(file)*0x9E3779B97F4A7C15 + uint64(off)
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return &c.shards[h&c.mask]
}

func (c *BlockCache) get(file ssd.FileID, off int64) ([]byte, bool) {
	s := c.shard(file, off)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.files[file][off]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.ll.MoveToFront(el)
	return el.Value.(*cacheItem).body, true
}

// put inserts or replaces the cached body for (file, off), keeping body
// itself: the caller hands over a verified block that nothing writes again.
// Replacing matters: after a file slot is rewritten, a stale body must not
// survive a re-insert.
func (c *BlockCache) put(file ssd.FileID, off int64, body []byte) {
	s := c.shard(file, off)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.files[file][off]; ok {
		item := el.Value.(*cacheItem)
		s.used += int64(len(body)) - int64(len(item.body))
		item.body = body
		s.ll.MoveToFront(el)
		s.evictLocked()
		return
	}
	el := s.ll.PushFront(&cacheItem{file: file, off: off, body: body})
	m := s.files[file]
	if m == nil {
		m = make(map[int64]*list.Element)
		s.files[file] = m
	}
	m[off] = el
	s.used += int64(len(body))
	s.evictLocked()
}

// evictLocked drops LRU items until the shard is within capacity. Note an
// item larger than the whole shard evicts everything including itself.
//
//pmblade:holds mu
func (s *cacheShard) evictLocked() {
	for s.used > s.capacity && s.ll.Len() > 0 {
		back := s.ll.Back()
		item := back.Value.(*cacheItem)
		s.ll.Remove(back)
		s.removeIndexLocked(item)
		s.used -= int64(len(item.body))
		s.evictions++
	}
}

// removeIndexLocked deletes an item from the per-file handle index.
//
//pmblade:holds mu
func (s *cacheShard) removeIndexLocked(item *cacheItem) {
	m := s.files[item.file]
	delete(m, item.off)
	if len(m) == 0 {
		delete(s.files, item.file)
	}
}

// Shards reports the shard count.
func (c *BlockCache) Shards() int { return len(c.shards) }

// Stats aggregates the counters across every shard.
func (c *BlockCache) Stats() CacheStats {
	var out CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out.Hits += s.hits
		out.Misses += s.misses
		out.Evictions += s.evictions
		out.Used += s.used
		out.Capacity += s.capacity
		s.mu.Unlock()
	}
	return out
}

// ShardStats reports each shard's counters (contention/imbalance debugging).
func (c *BlockCache) ShardStats() []CacheStats {
	out := make([]CacheStats, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out[i] = CacheStats{
			Hits:      s.hits,
			Misses:    s.misses,
			Evictions: s.evictions,
			Used:      s.used,
			Capacity:  s.capacity,
		}
		s.mu.Unlock()
	}
	return out
}

// HitRate reports hits/(hits+misses), or 0 when unused.
func (c *BlockCache) HitRate() float64 {
	st := c.Stats()
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// Used reports the cached bytes.
func (c *BlockCache) Used() int64 { return c.Stats().Used }

// DropFile evicts all blocks of a deleted file. Each shard removes exactly
// the file's blocks through its handle index — no full-LRU walk.
func (c *BlockCache) DropFile(file ssd.FileID) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, el := range s.files[file] {
			item := el.Value.(*cacheItem)
			s.ll.Remove(el)
			s.used -= int64(len(item.body))
		}
		delete(s.files, file)
		s.mu.Unlock()
	}
}
