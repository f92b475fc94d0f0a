// Package pmblade is a persistent-memory augmented LSM-tree storage engine,
// a from-scratch reproduction of "PM-Blade: A Persistent Memory Augmented
// LSM-tree Storage for Database" (ICDE 2023).
//
// The engine keeps a large level-0 layer on (simulated) persistent memory:
// hot and warm data is served at near-DRAM latency, write amplification is
// absorbed by compactions that stay inside PM (internal compaction), and a
// cost-based strategy decides when to compact and which partitions to keep
// resident. Major compaction to SSD runs on a coroutine scheduler with a
// dedicated flush coroutine and I/O admission control.
//
// Quick start:
//
//	db, err := pmblade.Open(pmblade.DefaultOptions())
//	if err != nil { ... }
//	defer db.Close()
//	db.Put([]byte("k"), []byte("v"))
//	v, ok, err := db.Get([]byte("k"))
//
// Because no PM hardware is assumed, the devices are simulations with
// calibrated latency models; see DESIGN.md for the substitution notes.
package pmblade

import (
	"pmblade/internal/engine"
	"pmblade/internal/keyenc"
	"pmblade/internal/pmem"
	"pmblade/internal/pmtable"
	"pmblade/internal/sched"
	"pmblade/internal/ssd"
)

// Options configures a DB. The zero value is not usable; start from
// DefaultOptions or FastOptions (ablations and baselines open through
// OpenEngine).
type Options struct {
	// PMCapacityBytes is the persistent-memory budget for level-0.
	PMCapacityBytes int64
	// MemtableBytes is the flush threshold of each partition's memtable.
	MemtableBytes int64
	// PartitionBoundaries range-partitions the keyspace; nil = 1 partition.
	PartitionBoundaries [][]byte
	// RealisticLatency enables the calibrated Optane/NVMe latency models;
	// false runs with zero injected latency (unit-test speed).
	RealisticLatency bool
	// DisableWAL turns off write-ahead logging.
	DisableWAL bool
	// Workers and QMax tune the coroutine compaction pool (c and q in the
	// paper); zero values pick defaults (2 workers, q=8).
	Workers, QMax int
	// BlockCacheBytes sizes the SSD block cache.
	BlockCacheBytes int64
}

// DefaultOptions returns the full PM-Blade configuration: prefix-compressed
// PM tables, internal compaction, cost-based strategy, and the PM-Blade
// coroutine scheduler.
func DefaultOptions() Options {
	return Options{
		PMCapacityBytes: 256 << 20,
		MemtableBytes:   4 << 20,
		BlockCacheBytes: 32 << 20,
	}
}

// FastOptions returns DefaultOptions with zero-latency devices, for tests.
func FastOptions() Options {
	o := DefaultOptions()
	o.DisableWAL = true
	return o
}

// resolve builds the engine config.
func (o Options) resolve() engine.Config {
	cfg := engine.Config{
		PMCapacity:          o.PMCapacityBytes,
		MemtableBytes:       o.MemtableBytes,
		PartitionBoundaries: o.PartitionBoundaries,
		Level0OnPM:          true,
		PMTableFormat:       pmtable.FormatPrefix,
		InternalCompaction:  true,
		CostBased:           true,
		SchedMode:           sched.ModePMBlade,
		Workers:             o.Workers,
		QMax:                o.QMax,
		DisableWAL:          o.DisableWAL,
		BlockCacheBytes:     o.BlockCacheBytes,
	}
	if o.RealisticLatency {
		cfg.PMProfile = pmem.OptaneProfile
		cfg.SSDProfile = ssd.NVMeProfile
	} else {
		cfg.SSDProfile = ssd.FastProfile
	}
	return cfg
}

// EngineConfig returns the fully resolved engine configuration these
// options describe — what Recover needs to reopen a database whose devices
// survived a crash.
func (o Options) EngineConfig() engine.Config { return o.resolve() }

// DB is a PM-Blade database handle.
type DB struct {
	eng *engine.DB
}

// Open creates a database with fresh simulated devices.
func Open(o Options) (*DB, error) {
	eng, err := engine.Open(o.resolve())
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng}, nil
}

// Close shuts the database down.
func (db *DB) Close() error { return db.eng.Close() }

// Put stores a key-value pair.
func (db *DB) Put(key, value []byte) error { return db.eng.Put(key, value) }

// Delete removes a key.
func (db *DB) Delete(key []byte) error { return db.eng.Delete(key) }

// Get returns the value of key; ok is false when absent or deleted.
func (db *DB) Get(key []byte) (value []byte, ok bool, err error) { return db.eng.Get(key) }

// MultiGet resolves many keys at one snapshot; results are positionally
// identical to len(keys) sequential Gets but share routing, per-partition
// snapshots, and coalesced SSD block reads, and partitions resolve in
// parallel.
func (db *DB) MultiGet(keys [][]byte) ([]engine.GetResult, error) { return db.eng.MultiGet(keys) }

// KV is one key-value pair returned by Scan. It aliases the engine's result
// type so scans hand the result slice through without a re-wrap copy.
type KV = engine.ScanResult

// Scan returns up to limit live pairs with start <= key < end; nil bounds
// are unbounded, limit 0 is unlimited. It reads the range partitions in key
// order from the one holding start and stops at the one that fills limit, so
// a bounded scan costs what it returns; it fails with engine.ErrUnavailable,
// never with a short result, if a partition it reaches has a quarantined
// table over the range.
func (db *DB) Scan(start, end []byte, limit int) ([]KV, error) {
	return db.eng.Scan(start, end, limit)
}

// Batch groups writes for atomic application.
type Batch struct {
	b engine.Batch
}

// Put queues a write.
func (b *Batch) Put(key, value []byte) { b.b.Put(key, value) }

// Delete queues a tombstone.
func (b *Batch) Delete(key []byte) { b.b.Delete(key) }

// Len reports queued operations.
func (b *Batch) Len() int { return b.b.Len() }

// Reset clears the batch.
func (b *Batch) Reset() { b.b.Reset() }

// Apply commits a batch.
func (db *DB) Apply(b *Batch) error { return db.eng.Apply(&b.b) }

// NewIterator opens a streaming iterator over [start, end) (nil bounds are
// unbounded). The iterator observes a snapshot taken at creation and holds
// table references until Close, so long scans never race compactions.
func (db *DB) NewIterator(start, end []byte) (*engine.Iterator, error) {
	return db.eng.NewIterator(start, end)
}

// Snapshot is a consistent point-in-time view of the database: every read
// through it resolves at the same sequence across partitions and tiers,
// unaffected by concurrent writes, flushes, and compactions. While a
// snapshot is open, flush and compaction retain the versions it can read;
// Close releases that pin. With no snapshots open, write amplification is
// unchanged — shadowed versions are still dropped at flush.
type Snapshot struct {
	s *engine.Snapshot
}

// NewSnapshot opens a snapshot at the current visibility watermark. Batches
// are atomic under it: either all of a Batch's writes are visible or none.
func (db *DB) NewSnapshot() (*Snapshot, error) {
	s, err := db.eng.NewSnapshot()
	if err != nil {
		return nil, err
	}
	return &Snapshot{s: s}, nil
}

// Seq reports the sequence this snapshot reads at.
func (s *Snapshot) Seq() uint64 { return s.s.Seq() }

// Close releases the snapshot. Safe to call twice.
func (s *Snapshot) Close() { s.s.Close() }

// Get returns the value of key as of the snapshot.
func (s *Snapshot) Get(key []byte) (value []byte, ok bool, err error) { return s.s.Get(key) }

// MultiGet resolves many keys as of the snapshot; semantics match
// DB.MultiGet.
func (s *Snapshot) MultiGet(keys [][]byte) ([]engine.GetResult, error) { return s.s.MultiGet(keys) }

// Scan returns up to limit live pairs with start <= key < end as of the
// snapshot.
func (s *Snapshot) Scan(start, end []byte, limit int) ([]KV, error) {
	return s.s.Scan(start, end, limit)
}

// NewIterator opens a streaming iterator over [start, end) at the snapshot's
// sequence. The iterator holds its own pin and stays consistent even if the
// snapshot is closed first.
func (s *Snapshot) NewIterator(start, end []byte) (*engine.Iterator, error) {
	return s.s.NewIterator(start, end)
}

// Flush forces all memtables to level-0 (mainly for tests and shutdown).
func (db *DB) Flush() error { return db.eng.FlushAll() }

// Compact forces a full major compaction of level-0 into the SSD tier.
func (db *DB) Compact() error { return db.eng.MajorCompactAll() }

// Tier identifies which storage tier served a read.
type Tier = engine.Tier

// Read-serving tiers, re-exported for Metrics().ReadsBy.
const (
	TierMemtable = engine.TierMemtable
	TierPM       = engine.TierPM
	TierSSD      = engine.TierSSD
)

// Metrics returns engine counters and latency histograms.
func (db *DB) Metrics() *engine.Metrics { return db.eng.Metrics() }

// WriteAmp reports byte-exact write-amplification counters.
func (db *DB) WriteAmp() engine.WriteAmp { return db.eng.WriteAmp() }

// Engine exposes the underlying engine for advanced use (experiments,
// recovery, custom configs).
func (db *DB) Engine() *engine.DB { return db.eng }

// OpenEngine opens a DB from a fully specified engine configuration — the
// door the benchmark harness uses for ablation and baseline configs.
func OpenEngine(cfg engine.Config) (*DB, error) {
	eng, err := engine.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng}, nil
}

// --- Table and secondary-index helpers -----------------------------------
//
// PM-Blade serves a database layer: rows live under record keys and
// secondary indexes under index keys (Figure 2(b)'s encoding). These helpers
// expose that encoding so applications can model tables the way Blade does.

// Table provides row and index operations over one logical database table.
type Table struct {
	db *DB
	id uint64
}

// Table returns a handle for table id (ids start at 1).
func (db *DB) Table(id uint64) *Table { return &Table{db: db, id: id} }

// InsertRow stores a row by primary key.
func (t *Table) InsertRow(pk, row []byte) error {
	return t.db.Put(keyenc.RecordKey(t.id, pk), row)
}

// GetRow fetches a row by primary key.
func (t *Table) GetRow(pk []byte) ([]byte, bool, error) {
	return t.db.Get(keyenc.RecordKey(t.id, pk))
}

// DeleteRow removes a row (index entries must be removed by the caller, as
// in any KV-backed database layer).
func (t *Table) DeleteRow(pk []byte) error {
	return t.db.Delete(keyenc.RecordKey(t.id, pk))
}

// AddIndexEntry writes a secondary-index entry mapping value -> pk.
func (t *Table) AddIndexEntry(indexID uint32, value, pk []byte) error {
	return t.db.Put(keyenc.IndexKey(t.id, indexID, value, pk), nil)
}

// RemoveIndexEntry deletes a secondary-index entry.
func (t *Table) RemoveIndexEntry(indexID uint32, value, pk []byte) error {
	return t.db.Delete(keyenc.IndexKey(t.id, indexID, value, pk))
}

// LookupIndex returns the primary keys whose indexed column equals value,
// up to limit (0 = all).
func (t *Table) LookupIndex(indexID uint32, value []byte, limit int) ([][]byte, error) {
	prefix := keyenc.IndexValuePrefix(t.id, indexID, value)
	res, err := t.db.Scan(prefix, keyenc.PrefixEnd(prefix), limit)
	if err != nil {
		return nil, err
	}
	var pks [][]byte
	for _, r := range res {
		_, _, _, pk, err := keyenc.ParseIndexKey(r.Key)
		if err != nil {
			return nil, err
		}
		pks = append(pks, pk)
	}
	return pks, nil
}

// ScanRows iterates rows of the table in primary-key order, up to limit.
func (t *Table) ScanRows(limit int) ([]KV, error) {
	prefix := keyenc.TablePrefix(t.id)
	res, err := t.db.Scan(prefix, keyenc.PrefixEnd(prefix), limit)
	if err != nil {
		return nil, err
	}
	for i := range res {
		_, pk, err := keyenc.ParseRecordKey(res[i].Key)
		if err != nil {
			return nil, err
		}
		res[i].Key = pk
	}
	return res, nil
}
