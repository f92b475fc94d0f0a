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
	return db.write(kv.Entry{Key: key, Value: value, Kind: kv.KindSet})
}

// Delete writes a tombstone for key.
func (db *DB) Delete(key []byte) error {
	return db.write(kv.Entry{Key: key, Kind: kv.KindDelete})
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
	return db.write(b.entries...)
}

// write commits entries as one batch: all or nothing in the log, all at once
// for readers. The caller is blocked until its turn is over, so the entries
// may alias its buffers — log and memtable copy what they keep. After the
// turn comes maintenance: the leader starts the flush of every memtable its
// turn retired (scheduled, or run here under SyncFlush — in partition order,
// so crash-point enumeration sees the same device operations on every
// replay), and each writer waits out its partitions' flush backlog.
func (db *DB) write(entries ...kv.Entry) error {
	if len(entries) == 0 {
		return nil
	}
	start := time.Now()
	r := &commitReq{entries: entries}
	if group := db.joinTurn(r); group != nil {
		db.endTurn(group, db.commitGroup(group))
	}
	if r.err != nil {
		return r.err
	}
	for _, p := range r.rotated {
		if !db.cfg.SyncFlush {
			db.scheduleFlush(p)
		} else if err := db.flushAndMaintain(p); err != nil {
			return err
		} else if err := db.globalCompactionCheck(); err != nil {
			return err
		}
	}
	var last *partition
	for i := range entries {
		if p := db.route(entries[i].Key); p != last {
			db.awaitFlushBacklog(p)
			last = p
		}
	}
	if err := db.loadBgErr(); err != nil {
		return err
	}
	db.metrics.WriteLatency.Record(time.Since(start))
	return nil
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

// awaitFlushBacklog is the write path's backpressure: a writer whose
// partition holds maxImmutables unflushed memtables joins the flush effort
// until the backlog is below that again; the time goes to WriteStallNanos.
func (db *DB) awaitFlushBacklog(p *partition) {
	if len(p.state.Load().imm) < maxImmutables {
		return
	}
	stall := time.Now()
	for db.loadBgErr() == nil && !db.closed.Load() && len(p.state.Load().imm) >= maxImmutables {
		// Lend this writer's CPU to the flushers instead of parking it: on
		// machines with few cores the background workers may not be scheduled
		// often enough to keep pace with a hot write loop, and a parked writer
		// would leave the backlog to drain at whatever rate the scheduler
		// grants. flushAndMaintain serializes on p.maint with the background
		// task, so the two never double-flush.
		if err := db.flushAndMaintain(p); err != nil {
			db.setBgErr(err)
			break
		}
	}
	db.metrics.WriteStallNanos.Add(int64(time.Since(stall)))
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
// checkpoint, and shutdown support) and runs the compaction strategy. The
// rotation takes a turn, like every rotation.
func (db *DB) FlushAll() error {
	db.turn(func() {
		for _, p := range db.partitions {
			p.rotate(0)
		}
	})
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
	} else { // level-0 on SSD: the SSD tree's level 0
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
