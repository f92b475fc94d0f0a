package engine

import (
	"errors"
	"fmt"
	"time"

	"pmblade/internal/device"
	"pmblade/internal/kv"
	"pmblade/internal/memtable"
	"pmblade/internal/pmem"
	"pmblade/internal/pmtable"
	"pmblade/internal/sched"
	"pmblade/internal/sstable"
)

// Put writes a key-value pair.
func (db *DB) Put(key, value []byte) error {
	return db.apply(kv.Entry{Key: key, Value: value, Kind: kv.KindSet})
}

// Delete writes a tombstone for key.
func (db *DB) Delete(key []byte) error {
	return db.apply(kv.Entry{Key: key, Kind: kv.KindDelete})
}

// Batch applies a group of entries atomically with respect to the WAL:
// the whole batch shares one log record, so recovery sees all of it or none.
type Batch struct {
	entries []kv.Entry
}

// Put queues a set into the batch.
func (b *Batch) Put(key, value []byte) {
	b.entries = append(b.entries, kv.Entry{Key: key, Value: value, Kind: kv.KindSet}.Clone())
}

// Delete queues a tombstone into the batch.
func (b *Batch) Delete(key []byte) {
	b.entries = append(b.entries, kv.Entry{Key: key, Kind: kv.KindDelete}.Clone())
}

// Len reports the number of queued operations.
func (b *Batch) Len() int { return len(b.entries) }

// Reset clears the batch for reuse.
func (b *Batch) Reset() { b.entries = b.entries[:0] }

// Apply commits the batch.
func (db *DB) Apply(b *Batch) error {
	if len(b.entries) == 0 {
		return nil
	}
	db.opGate.RLock()
	defer db.opGate.RUnlock()
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.loadBgErr(); err != nil {
		return err
	}
	start := time.Now()
	first, last, err := db.commit(b.entries)
	if err != nil {
		// The failed block still publishes: the in-order watermark must not
		// stall on a gap no insert will ever fill.
		db.publish(first, last)
		return err
	}
	// Apply every memtable insert before any flush check, so a maintenance
	// error can never leave the batch half-accounted: by the time flush
	// scheduling runs, all entries are readable.
	touched := map[*partition]bool{}
	for i := range b.entries {
		e := b.entries[i]
		p := db.route(e.Key)
		db.noteWrite(p, e)
		p.insert(e)
		touched[p] = true
	}
	// Every entry is inserted: publish the block, making the whole batch
	// visible at once (all-or-nothing for concurrent readers).
	db.publish(first, last)
	var firstErr error
	// Walk partitions in index order, not map order: with SyncFlush the
	// flush happens on this goroutine, and crash-point enumeration needs
	// the identical device-op sequence on every replay of a workload.
	for _, p := range db.partitions {
		if !touched[p] {
			continue
		}
		if err := db.maybeFlush(p); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	db.metrics.WriteLatency.Record(time.Since(start))
	return firstErr
}

// apply commits a single entry.
func (db *DB) apply(e kv.Entry) error {
	db.opGate.RLock()
	defer db.opGate.RUnlock()
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.loadBgErr(); err != nil {
		return err
	}
	start := time.Now()
	one := [1]kv.Entry{e.Clone()}
	first, last, err := db.commit(one[:])
	if err != nil {
		db.publish(first, last)
		return err
	}
	e = one[0]
	p := db.route(e.Key)
	db.noteWrite(p, e)
	p.insert(e)
	db.publish(first, last)
	if err := db.maybeFlush(p); err != nil {
		return err
	}
	db.metrics.WriteLatency.Record(time.Since(start))
	return nil
}

// insert adds e to p's active memtable. It holds p.mu shared, so a rotation
// (which takes it exclusively) cannot retire the memtable mid-insert and hand
// a flush a memtable that is still growing.
func (p *partition) insert(e kv.Entry) {
	p.mu.RLock()
	p.state.Load().mem.Add(e)
	p.mu.RUnlock()
}

// noteWrite updates n_i^w / n_i^u and user-byte accounting. An update is a
// write whose key was already written since the last stats reset — exactly
// the redundancy internal compaction can remove, which is what Eq. 2
// estimates. The detector is a DRAM hash set, so the write path never probes
// the storage tiers.
func (db *DB) noteWrite(p *partition, e kv.Entry) {
	db.userBytes.Add(int64(len(e.Key) + len(e.Value)))
	p.writes.Add(1)
	if p.noteKeyWrite(e.Key) {
		p.updates.Add(1)
	}
}

// maxImmutables is the per-partition backpressure threshold: a writer stalls
// while its partition holds this many unflushed immutable memtables, giving
// the background flushers time to catch up.
const maxImmutables = 4

// maybeFlush is the foreground half of flushing (Section IV-D, stage 3→4
// boundary): when the memtable exceeds its budget it is rotated into the
// immutable list and a background flush task is scheduled. Backpressure: if
// the partition has accumulated maxImmutables unflushed memtables the writer
// stops accepting new writes and joins the flush effort until the backlog is
// below the threshold again, with the stall time recorded in Metrics.
func (db *DB) maybeFlush(p *partition) error {
	s := p.state.Load()
	backlog := len(s.imm)
	if s.mem.ApproximateSize() >= db.cfg.MemtableBytes {
		backlog = p.rotate(db.cfg.MemtableBytes)
		if db.cfg.SyncFlush {
			if err := db.flushAndMaintain(p); err != nil {
				return err
			}
			return db.globalCompactionCheck()
		}
		db.scheduleFlush(p)
	}
	if backlog >= maxImmutables {
		stall := time.Now()
		for db.loadBgErr() == nil && !db.closed.Load() && len(p.state.Load().imm) >= maxImmutables {
			// Lend this writer's CPU to the flushers instead of parking it:
			// on machines with few cores the background workers may not be
			// scheduled often enough to keep pace with a hot write loop, and
			// a parked writer would leave the backlog to drain at whatever
			// rate the scheduler grants. flushAndMaintain serializes on
			// p.maint with the background task, so the two never double-flush.
			if err := db.flushAndMaintain(p); err != nil {
				db.setBgErr(err)
				break
			}
		}
		db.metrics.WriteStallNanos.Add(int64(time.Since(stall)))
	}
	return db.loadBgErr()
}

// scheduleFlush hands p to the background flush workers, at most one task in
// flight per partition.
func (db *DB) scheduleFlush(p *partition) {
	if !p.flushPending.CompareAndSwap(false, true) {
		return
	}
	db.flushesMu.Lock()
	db.flushes++
	db.flushesMu.Unlock()
	if !db.pool.Submit(func(*sched.Ctx) { db.maintainPartition(p) }) {
		// Pool already closed (shutdown); FlushAll or Close will drain imm.
		p.flushPending.Store(false)
		db.flushDone()
	}
}

// maintainPartition is the background flush task: flush p's immutables and
// run the local compaction strategy, then check the global (cross-partition)
// triggers. Failures park in bgErr and wake stalled writers.
func (db *DB) maintainPartition(p *partition) {
	defer db.flushDone()
	p.flushPending.Store(false)
	if err := db.flushAndMaintain(p); err != nil {
		db.setBgErr(err)
		return
	}
	if err := db.globalCompactionCheck(); err != nil {
		db.setBgErr(err)
	}
}

// flushAndMaintain flushes p's immutables and runs the local strategy under
// p.maint (through maintain: rot met on the way is a quarantine, never a
// bgErr). PM running out of space is a stall, not a failure: the lock is
// released, an eviction pass runs (evictOnce — majorMu covers only the victim
// decision, and a pass already in flight is joined rather than queued behind),
// the wait is charged to the write-stall metric, and the flush is tried again,
// as often as it takes. The loop ends in an error only when a pass this caller
// decided itself had nothing to give back and no other pass finished since the
// flush was tried (one that did may have made the room this one then found
// nothing to add to) — then no amount of waiting makes room, and the
// configuration is at fault.
func (db *DB) flushAndMaintain(p *partition) error {
	for {
		passes := db.metrics.EvictionCount.Load()
		err := db.maintain(p, func() error {
			if err := db.flushImmutables(p); err != nil {
				return err
			}
			return db.localCompactionStrategy(p)
		})
		if !errors.Is(err, pmem.ErrOutOfSpace) {
			return err
		}
		stall := time.Now()
		idle, everr := db.evictOnce(db.costVictims)
		db.metrics.WriteStallNanos.Add(int64(time.Since(stall)))
		if everr != nil {
			return everr
		}
		if idle && db.metrics.EvictionCount.Load() == passes+1 {
			return fmt.Errorf("engine: PMCapacity %d is too small: %d bytes in use and eviction, which preserves up to Cost.TauT = %d, has nothing left to release: %w",
				db.pm.Capacity(), db.pm.Used(), db.cfg.Cost.TauT, err)
		}
	}
}

// FlushAll force-flushes every partition's memtable synchronously (tests,
// checkpoint, and shutdown support) and runs the compaction strategy.
func (db *DB) FlushAll() error {
	for _, p := range db.partitions {
		p.rotate(0)
	}
	for _, p := range db.partitions {
		if err := db.flushAndMaintain(p); err != nil {
			return err
		}
	}
	return db.globalCompactionCheck()
}

// flushImmutables performs minor compactions for p, oldest immutable first
// so level-0 recency order is preserved. Each immutable leaves the read state
// in the same store that adds its level-0 table. Callers hold p.maint, so
// nothing else shortens imm underneath the loop.
func (db *DB) flushImmutables(p *partition) error {
	for {
		imm := p.state.Load().imm
		if len(imm) == 0 {
			return nil
		}
		m := imm[len(imm)-1] // oldest
		if err := db.flushOne(p, m); err != nil {
			return err
		}
		db.installTables(p, m, false)
	}
}

// flushOne writes one immutable memtable to level-0. Shadowed versions are
// dropped at flush per the snapshot-aware retention rule: with no open
// snapshots the boundary set is just the visibility watermark and only the
// newest version of each key leaves DRAM (as RocksDB does absent snapshots);
// while a snapshot is open, the versions it can still read survive the
// flush. pmem.ErrOutOfSpace propagates (wrapped with the flush size) to the
// caller, which evicts and retries.
//
//pmblade:compacts
func (db *DB) flushOne(p *partition, m *memtable.Memtable) error {
	if m.Empty() {
		return nil
	}
	src := m.NewIterator()
	src.SeekToFirst()
	entries, err := collectEntries(kv.NewRetainIterator(src, db.retentionBounds(), false))
	if err != nil {
		return err
	}
	if db.cfg.Level0OnPM {
		// Transient PM faults are retried (Build releases its allocation on
		// every failure, so a retry starts clean); anything else propagates.
		var res pmtable.BuildResult
		err := db.retryDurable(func() error {
			var e error
			res, e = pmtable.Build(db.pm, entries, db.cfg.PMTableFormat, db.cfg.GroupSize, device.CauseFlush)
			return e
		})
		if err != nil {
			return fmt.Errorf("engine: flush %d-byte memtable to PM level-0: %w", m.ApproximateSize(), err)
		}
		p.l0.AddUnsorted(res.Table)
	} else { // PMBlade-SSD and RocksDB modes: SSTable level-0
		t, err := buildSSTable(db, entries, device.CauseFlush)
		if err != nil {
			return err
		}
		p.tree.AddL0(t)
	}
	db.metrics.FlushCount.Add(1)
	return nil
}

// buildSSTable writes entries (sorted) as one SSTable. Transient device
// faults restart the build in a fresh file (the failed attempt deletes its
// file); other errors propagate.
func buildSSTable(db *DB, entries []kv.Entry, cause device.Cause) (*sstable.Table, error) {
	var t *sstable.Table
	err := db.retryDurable(func() error {
		b := sstable.NewBuilder(db.ssd, cause)
		for _, e := range entries {
			if err := b.Add(e); err != nil {
				b.Abandon()
				return err
			}
		}
		var err error
		t, err = b.Finish()
		return err
	})
	if err != nil {
		return nil, err
	}
	t.AttachCache(db.cache)
	return t, nil
}
