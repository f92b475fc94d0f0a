// Package level0 manages one partition's PM-resident level-0: the set of
// unsorted PM tables (flush order, newest first) and the sorted run produced
// by internal compaction (mutually non-overlapping tables). It implements
// the lookup path across both sets and the internal-compaction mechanics of
// Section IV-B: merge all tables, drop redundant versions, rebuild a sorted
// run — entirely inside persistent memory.
package level0

import (
	"bytes"
	"slices"

	"pmblade/internal/device"
	"pmblade/internal/kv"
	"pmblade/internal/pmem"
	"pmblade/internal/pmtable"
)

// Config controls table construction during internal compaction.
type Config struct {
	// Format is the PM table layout to build.
	Format pmtable.Format
	// GroupSize is the entries-per-group for grouped formats.
	GroupSize int
	// TargetTableSize splits the sorted run into tables of roughly this many
	// bytes of raw payload; 0 means one table per compaction.
	TargetTableSize int64
	// Retire disposes a table that compaction or eviction replaced; nil means
	// immediate t.Release(). The engine supplies a deferring hook when a WAL
	// is in use: the durable manifest may still reference the table, so its
	// space must not be reclaimed before the next manifest install.
	Retire func(*pmtable.Table)
}

// Level0 is one partition's level-0 table set, as its maintainer sees it. It
// carries no lock: the engine mutates it only under the partition's
// maintenance lock and publishes Tables() to readers inside an immutable read
// state. Every mutator installs fresh slices, so a slice handed out by Tables
// is never edited afterwards.
type Level0 struct {
	dev *pmem.Device
	cfg Config

	unsorted []*pmtable.Table // newest first
	sorted   []*pmtable.Table // ascending, non-overlapping
}

// New creates an empty level-0 on dev.
func New(dev *pmem.Device, cfg Config) *Level0 {
	if cfg.GroupSize <= 0 {
		cfg.GroupSize = pmtable.DefaultGroupSize
	}
	return &Level0{dev: dev, cfg: cfg}
}

// retire disposes a replaced table through the configured hook.
func (l *Level0) retire(t *pmtable.Table) {
	if l.cfg.Retire != nil {
		l.cfg.Retire(t)
		return
	}
	t.Release()
}

// AddUnsorted installs a freshly flushed PM table as the newest unsorted
// table (minor compaction's output).
func (l *Level0) AddUnsorted(t *pmtable.Table) {
	l.unsorted = append([]*pmtable.Table{t}, l.unsorted...)
}

// without returns a copy of ts with t removed, and whether t was present.
func without(ts []*pmtable.Table, t *pmtable.Table) ([]*pmtable.Table, bool) {
	i := slices.Index(ts, t)
	if i < 0 {
		return ts, false
	}
	return slices.Delete(slices.Clone(ts), i, i+1), true
}

// Remove detaches one table from the level without retiring it: the caller
// takes ownership of the (possibly corrupt) table object and its PM region.
// Quarantine uses it to pull a rotted table out of the read path while
// keeping the corpse alive for inspection. Reports whether t was present.
func (l *Level0) Remove(t *pmtable.Table) bool {
	var inUnsorted, inSorted bool
	l.unsorted, inUnsorted = without(l.unsorted, t)
	l.sorted, inSorted = without(l.sorted, t)
	return inUnsorted || inSorted
}

// Tables returns the current (unsorted, sorted) sets; callers must not edit
// the slices.
func (l *Level0) Tables() (unsorted, sorted []*pmtable.Table) {
	return l.unsorted, l.sorted
}

// GetStats describes the work one Get performed against level-0.
type GetStats struct {
	// Probed counts PM tables actually searched — the read-amplification
	// signal Figure 7(a) measures.
	Probed int
	// FilterSkips counts tables pruned by fence keys or their Bloom filter
	// without touching entry data.
	FilterSkips int
	// FilterHits counts tables whose filter admitted the key (and were
	// therefore probed).
	FilterHits int
}

// Get searches the newest-first unsorted tables, then the sorted run. It
// returns the newest version visible at seq, honoring tombstones (the caller
// interprets Kind). The entry's Value is a view of the table that held it
// (pmtable.Table.Get): copy it before letting go of the tables. A table that
// fails to decode fails the lookup: it may hold the newest version, so
// nothing found elsewhere can be trusted over it.
func Get(unsorted, sorted []*pmtable.Table, key []byte, seq uint64) (e kv.Entry, ok bool, stats GetStats, err error) {
	// Unsorted tables must all be consulted newest-first: any of them may
	// hold a newer version (this is level-0 read amplification). Fence keys
	// and the per-table Bloom filter prune tables that cannot hold the key
	// before paying for a PM probe.
	var best kv.Entry
	found := false
	for _, t := range unsorted {
		if bytes.Compare(key, t.Smallest()) < 0 || bytes.Compare(key, t.Largest()) > 0 ||
			!t.MayContain(key) {
			stats.FilterSkips++
			continue
		}
		stats.Probed++
		stats.FilterHits++
		cand, hit, err := t.Get(key, seq)
		if err != nil {
			return kv.Entry{}, false, stats, err
		}
		if hit && (!found || cand.Seq > best.Seq) {
			best, found = cand, true
		}
	}
	if found {
		return best, true, stats, nil
	}
	// Sorted run: at most one table overlaps the key.
	for _, t := range sorted {
		if bytes.Compare(key, t.Smallest()) >= 0 && bytes.Compare(key, t.Largest()) <= 0 {
			if !t.MayContain(key) {
				stats.FilterSkips++
				break
			}
			stats.Probed++
			stats.FilterHits++
			e, ok, err = t.Get(key, seq)
			return e, ok, stats, err
		}
	}
	return kv.Entry{}, false, stats, nil
}

// Get is the package-level Get over the level's current tables.
func (l *Level0) Get(key []byte, seq uint64) (kv.Entry, bool, GetStats, error) {
	return Get(l.unsorted, l.sorted, key, seq)
}

// GetBatch resolves several keys with Get, stopping at the first that fails.
// out and found are parallel to keys; positions already marked found are
// skipped.
func GetBatch(unsorted, sorted []*pmtable.Table, keys [][]byte, seq uint64, out []kv.Entry, found []bool) (stats GetStats, err error) {
	for i, key := range keys {
		if found[i] {
			continue
		}
		e, ok, st, err := Get(unsorted, sorted, key, seq)
		if err != nil {
			return stats, err
		}
		if ok {
			out[i], found[i] = e, true
		}
		stats.Probed += st.Probed
		stats.FilterSkips += st.FilterSkips
		stats.FilterHits += st.FilterHits
	}
	return stats, nil
}

// CompactionStats reports what an internal compaction accomplished.
type CompactionStats struct {
	// TablesIn / EntriesIn describe the merged inputs.
	TablesIn  int
	EntriesIn int
	// EntriesOut counts surviving entries after redundancy removal.
	EntriesOut int
	// BytesReleased is PM space freed (inputs released minus outputs written).
	BytesReleased int64
	// BytesWritten is PM write traffic caused by the compaction.
	BytesWritten int64
}

// CompactInternal performs an internal compaction: merge every unsorted and
// sorted table, keep the newest version of each key plus every older version
// a retention boundary (open snapshot) can still read, and rebuild the
// sorted run. Tombstones are retained when keepTombstones is true (required
// whenever older data for this partition exists on SSD). bounds are the
// snapshot retention boundaries, ascending; empty degenerates to plain
// newest-version dedup. Returns the stats; if level-0 holds fewer than one
// table the call is a no-op.
func (l *Level0) CompactInternal(keepTombstones bool, bounds []uint64) (CompactionStats, error) {
	unsorted, sorted := l.unsorted, l.sorted
	if len(unsorted)+len(sorted) == 0 {
		return CompactionStats{}, nil
	}
	var stats CompactionStats
	stats.TablesIn = len(unsorted) + len(sorted)

	inputs := make([]kv.Iterator, 0, stats.TablesIn)
	for _, t := range unsorted {
		stats.EntriesIn += t.Len()
		inputs = append(inputs, t.NewIterator())
	}
	for _, t := range sorted {
		stats.EntriesIn += t.Len()
		inputs = append(inputs, t.NewIterator())
	}
	var sizeBefore int64
	for _, t := range unsorted {
		sizeBefore += t.SizeBytes()
	}
	for _, t := range sorted {
		sizeBefore += t.SizeBytes()
	}

	merged := kv.NewRetainIterator(kv.NewMergingIterator(inputs...), bounds, !keepTombstones)

	// Accumulate output tables of ~TargetTableSize raw bytes each.
	var newSorted []*pmtable.Table
	var batch []kv.Entry
	var batchBytes, written int64
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		res, err := pmtable.Build(l.dev, batch, l.cfg.Format, l.cfg.GroupSize, device.CauseInternal)
		if err != nil {
			return err
		}
		newSorted = append(newSorted, res.Table)
		written += res.EncodedBytes
		batch = batch[:0]
		batchBytes = 0
		return nil
	}
	// On failure (pmem.ErrOutOfSpace: internal compaction transiently needs
	// space for outputs before inputs release; or an input that does not
	// decode), roll back the partially built output so the caller can fall
	// back to a major compaction, or quarantine the input.
	cleanup := func(err error) (CompactionStats, error) {
		for _, t := range newSorted {
			t.Release()
		}
		return stats, err
	}
	for ; merged.Valid(); merged.Next() {
		e := merged.Entry()
		// Table splits only at user-key boundaries: a key's retained versions
		// must live in one table, or the sorted-run probe (one table per key)
		// would miss the older versions a snapshot still reads.
		if l.cfg.TargetTableSize > 0 && batchBytes >= l.cfg.TargetTableSize &&
			len(batch) > 0 && !bytes.Equal(e.Key, batch[len(batch)-1].Key) {
			if err := flush(); err != nil {
				return cleanup(err)
			}
		}
		stats.EntriesOut++
		batch = append(batch, e)
		batchBytes += int64(e.Size())
	}
	if err := merged.Err(); err != nil {
		return cleanup(err)
	}
	if err := flush(); err != nil {
		return cleanup(err)
	}

	// Swap table sets, then release inputs.
	l.unsorted, l.sorted = nil, newSorted

	for _, t := range unsorted {
		l.retire(t)
	}
	for _, t := range sorted {
		l.retire(t)
	}
	var sizeAfter int64
	for _, t := range newSorted {
		sizeAfter += t.SizeBytes()
	}
	stats.BytesReleased = sizeBefore - sizeAfter
	stats.BytesWritten = written
	return stats, nil
}

// Evict removes every table from level-0 (after a major compaction has
// persisted their contents to SSD) and releases their PM space. It returns
// the bytes freed.
func (l *Level0) Evict() int64 {
	unsorted, sorted := l.unsorted, l.sorted
	l.unsorted, l.sorted = nil, nil
	var freed int64
	for _, t := range unsorted {
		freed += t.SizeBytes()
		l.retire(t)
	}
	for _, t := range sorted {
		freed += t.SizeBytes()
		l.retire(t)
	}
	return freed
}

// ReplaceAll installs a new table set (used by recovery).
func (l *Level0) ReplaceAll(unsorted, sorted []*pmtable.Table) {
	l.unsorted = unsorted
	l.sorted = sorted
}
