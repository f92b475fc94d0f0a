package engine

import (
	"slices"
	"sync/atomic"

	"pmblade/internal/kv"
	"pmblade/internal/levels"
	"pmblade/internal/memtable"
	"pmblade/internal/pmtable"
	"pmblade/internal/rangeindex"
	"pmblade/internal/sstable"
)

// readState is one immutable version of a partition's LSM column, newest
// tier first. It is the only way a reader reaches the partition's memtables
// and tables: acquire it, walk its slices, release it. The layouts differ
// only in which slices are empty and how many runs there are. Every install point builds a new
// state from the current one and publishes it with one atomic store, so a
// reader can never pair tables from two different moments.
//
// Tier order is sequence order: every sequence in a tier is above every
// sequence in the tiers listed after it — mem, imm newest first, the unsorted
// level-0 tables newest first, then the stable half, whose own levels keep
// that order key by key — so a lookup stops at the first tier that holds a
// visible version of its key, comparing nothing across tiers. It holds by
// construction: one commit turn at a time hands out, inserts and rotates
// sequences (commit.go), flushes retire immutables oldest first, and a
// compaction takes every table above its output.
//
// A state holds one sstable reference per SSD table it lists and drops them
// the moment its last reference goes, so a replaced table's file lives
// exactly as long as some reader can still reach it. PM tables need no
// reference: the arena never reuses an address. So only code that reads SSD
// table *files* must acquire; maintenance code that looks at memtables, PM
// tables, or table counts and identities may use p.state.Load() directly.
type readState struct {
	refs atomic.Int32 // 1 for being published, +1 per reader

	mem        *memtable.Memtable
	imm        []*memtable.Memtable // newest first
	pmUnsorted []*pmtable.Table     // newest first
	ssdL0      []*sstable.Table     // newest first, may overlap
	*stableHalf
	// corpses are the partition's quarantined tables (quarantine.go): a key
	// one of them may hold reads as unavailable, never as an older version
	// or a miss. They enter and leave in the same store as the tables.
	corpses []corpse
}

// stableHalf is the part of a state only compaction, repair and quarantine
// change — the sorted PM tables and the SSD runs — together with the range
// view built over exactly those tables. Consecutive states that list the same
// tables share one stableHalf, so a rotation or a flush carries the view over
// and a view can never be paired with an overlay it was not built for.
type stableHalf struct {
	pmSorted []*pmtable.Table   // ascending, non-overlapping
	runs     [][]*sstable.Table // shallowest level first; each ascending, non-overlapping

	view     atomic.Pointer[rangeindex.View] // nil until a scan (or an install) builds it
	building atomic.Bool                     // single-flights the build
}

// ssts lists every SSD table of s, level-0 first.
func (s *readState) ssts() []*sstable.Table {
	out := append([]*sstable.Table(nil), s.ssdL0...)
	for _, run := range s.runs {
		out = append(out, run...)
	}
	return out
}

// pmTables lists every PM table of s, unsorted first.
func (s *readState) pmTables() []*pmtable.Table {
	return append(append([]*pmtable.Table(nil), s.pmUnsorted...), s.pmSorted...)
}

// acquire returns p's current state with a reference held; the caller must
// release it. A state whose count already reached zero was replaced: reload.
func (p *partition) acquire() *readState {
	for {
		s := p.state.Load()
		for n := s.refs.Load(); n > 0; n = s.refs.Load() {
			if s.refs.CompareAndSwap(n, n+1) {
				return s
			}
		}
	}
}

// release drops one reference; the last one lets go of the SSD tables.
func (s *readState) release() {
	if s.refs.Add(-1) == 0 {
		for _, t := range s.ssts() {
			t.Unref()
		}
	}
}

// publish makes s the partition's state and retires the previous one.
// Callers hold p.mu.
func (p *partition) publish(s *readState) {
	for _, t := range s.ssts() {
		t.Ref()
	}
	s.refs.Store(1)
	if old := p.state.Swap(s); old != nil {
		old.release()
	}
}

// rotate turns the active memtable into the newest immutable one if it holds
// at least minBytes (and anything at all), and reports whether it did. Only a
// commit turn calls it: turns are the only inserters, so the memtable retired
// is complete and its successor starts above every sequence it holds.
func (p *partition) rotate(minBytes int64) bool {
	if m := p.state.Load().mem; m.Empty() || m.ApproximateSize() < minBytes {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.state.Load()
	p.publish(&readState{
		mem:        memtable.New(),
		imm:        append([]*memtable.Memtable{s.mem}, s.imm...),
		pmUnsorted: s.pmUnsorted,
		ssdL0:      s.ssdL0,
		stableHalf: s.stableHalf,
		corpses:    s.corpses,
	})
	return true
}

// installTables publishes p's table containers and its corpses (edited by
// the caller under p.maint) as a new state. flushed, when non-nil, is the
// oldest immutable memtable, whose contents the new tables now hold: it
// leaves the state in the same store that adds its table, so no reader sees
// it twice or not at all. If the stable half changed and the old one had a view, rebuild builds
// the new one right here, so a steady scan workload sees no fallback window.
func (db *DB) installTables(p *partition, flushed *memtable.Memtable, rebuild bool) {
	p.mu.Lock()
	old := p.state.Load()
	s := &readState{mem: old.mem, imm: old.imm, stableHalf: old.stableHalf, corpses: p.corpses}
	if flushed != nil {
		s.imm = old.imm[:len(old.imm)-1]
	}
	var pmSorted []*pmtable.Table
	s.pmUnsorted, pmSorted = p.l0.Tables()
	s.ssdL0 = p.tree.L0Tables()
	runs := p.tree.RunTables()
	if !slices.Equal(pmSorted, old.pmSorted) || !slices.EqualFunc(runs, old.runs, slices.Equal[[]*sstable.Table]) {
		s.stableHalf = &stableHalf{pmSorted: pmSorted, runs: runs}
	}
	p.publish(s)
	p.mu.Unlock()
	if rebuild && s.stableHalf != old.stableHalf && old.view.Load() != nil {
		cur := p.acquire()
		// A failed build is not this install's failure (the caller holds
		// p.maint and cannot quarantine): the first scan meets it and heals.
		_, _ = db.viewOf(cur)
		cur.release()
	}
}

// unindexed returns iterators over the tiers of s that a range read merges on
// its heap, newest first (rank order breaks merge ties in favor of newer data):
// the mutable overlay — everything a view does not cover — and, for a reader
// that has no view, the stable half too, table by table, each run as one
// concatenating iterator that seeks only the covering table. SSD sources use
// scan iterators: readahead spans on cache misses, cache hits served from
// memory.
func (s *readState) unindexed(haveView bool) []kv.Iterator {
	n := 1 + len(s.imm) + len(s.pmUnsorted) + len(s.ssdL0)
	if !haveView {
		n += len(s.pmSorted) + len(s.runs)
	}
	its := make([]kv.Iterator, 0, n)
	its = append(its, s.mem.NewIterator())
	for _, m := range s.imm {
		its = append(its, m.NewIterator())
	}
	for _, t := range s.pmUnsorted {
		its = append(its, t.NewIterator())
	}
	for _, t := range s.ssdL0 {
		its = append(its, t.NewScanIterator())
	}
	if haveView {
		return its
	}
	for _, t := range s.pmSorted {
		its = append(its, t.NewIterator())
	}
	for _, run := range s.runs {
		its = append(its, levels.NewConcatScanIterator(run))
	}
	return its
}
