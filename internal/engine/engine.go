package engine

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pmblade/internal/clock"
	"pmblade/internal/fault"
	"pmblade/internal/kv"
	"pmblade/internal/level0"
	"pmblade/internal/levels"
	"pmblade/internal/memtable"
	"pmblade/internal/pmem"
	"pmblade/internal/pmtable"
	"pmblade/internal/sched"
	"pmblade/internal/ssd"
	"pmblade/internal/sstable"
	"pmblade/internal/wal"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("engine: closed")

// DB is the PM-Blade storage engine.
//
// Concurrency: the lock hierarchy is documented in DESIGN.md §5.3. In
// short: a commit turn > majorMu > partition.maint > partition.mu, and the
// small leaf mutexes (commitMu, walMu, flushesMu, partition.seenMu) are never
// held across an acquisition of any other lock. Readers take none of them:
// they acquire the partition's readState (state.go). Fields carry "guarded
// by:" annotations checked by the guardedby analyzer (pmblade-vet).
type DB struct {
	cfg   Config
	pm    *pmem.Device
	ssd   *ssd.Device
	cache *sstable.BlockCache
	pool  *sched.Pool

	seq       atomic.Uint64
	userBytes atomic.Int64
	metrics   *Metrics

	// The commit queue (commit.go, DESIGN.md §5.2): writes, FlushAll's
	// rotation, Checkpoint's log switch and Close each wait here for a turn,
	// and one turn runs at a time. Only a turn stores seq, the last sequence
	// taken, and visible, the last one readers may see (§5.10): a turn's whole
	// block at once, after its inserts, so no reader observes a torn batch.
	commitMu sync.Mutex
	commitQ  []*commitReq // waiting callers, oldest first; the head leads; guarded by: commitMu
	visible  atomic.Uint64

	// Snapshot registry: pinned sequences (open snapshots plus in-flight
	// reads) that flush/compaction retention consults via retentionBounds.
	snapMu   sync.Mutex
	snapRefs map[uint64]int // pinned seq -> refcount; guarded by: snapMu

	// wal is the live log, replaced only inside a turn (Checkpoint), under
	// walMu for its readers outside the queue (manifest, scrub). walTail is its
	// active segment in PM (DESIGN.md §5.2), nil without PM: one region for the
	// engine's life, set by Open or Recover, which every writer in turn owns.
	wal     *wal.Writer
	walMu   sync.Mutex
	walTail *wal.Tail

	partitions []*partition

	// majorMu serializes the cross-partition compaction DECISION only: the
	// Eq. 3 knapsack (SelectPreserved) and the global-wipe count reason
	// about all partitions at once, so one such decision is in flight at a
	// time, and manifest snapshots (lockAll) quiesce it. It is never held
	// across compaction I/O — the decision snapshots its victim set and
	// releases majorMu before any victim is compacted (each under its own
	// partition.maint), so preserved partitions flush and serve reads while
	// victims move to SSD. Lock order: majorMu before any partition.maint;
	// never acquire majorMu while holding a maint lock. The lockorder
	// analyzer enforces both directions plus the no-compaction-under-majorMu
	// contract (//pmblade:compacts).
	majorMu sync.Mutex

	// evictMu guards the eviction singleflight: at most one eviction pass
	// (cost-based or threshold wipe) runs at a time; concurrent triggers
	// join the in-flight pass and share its result. See evictOnce.
	evictMu       sync.Mutex
	evictInflight *evictState // guarded by: evictMu

	closed atomic.Bool

	// bgErr records the first background-flush failure; once set, writes
	// return it (the pipeline is considered wedged).
	bgErr atomic.Pointer[error]

	// manifestCur/manifestPrev track the installed manifest chain so the
	// previous manifest survives as a recovery fallback while older ones
	// are deleted. Mutated only by installManifest, under every maintenance
	// lock; zero means none.
	manifestCur  ssd.FileID
	manifestPrev ssd.FileID

	// flushes counts scheduled-but-unfinished background flush tasks;
	// flushesCv signals when it reaches zero (drainFlushes).
	flushesMu sync.Mutex
	flushes   int // guarded by: flushesMu
	flushesCv *sync.Cond

	// The retirement queue (table.go): storage that left the live set — tables
	// compaction replaced, corpses repair is done with — waiting for a durable
	// manifest that no longer names it. retire appends, installManifest drains.
	// Empty without a WAL.
	obsoleteMu sync.Mutex
	obsolete   []func() // each gives one table's storage back; guarded by: obsoleteMu

	// scrubStop/scrubDone bound the background scrub loop's lifetime; nil
	// when ScrubInterval is 0 (the default).
	scrubStop chan struct{}
	scrubDone chan struct{}
}

// evictState is one in-flight eviction pass. The owner writes err and then
// closes done; joiners block on done and read err afterwards, so the field
// needs no lock of its own.
type evictState struct {
	done chan struct{}
	err  error
}

// partition is one range partition's LSM column.
type partition struct {
	id int
	// lo is the inclusive lower bound; nil on the first partition. hi is the
	// exclusive upper bound; nil on the last.
	lo, hi []byte

	// state is the partition's published read state (state.go). mu is the
	// publish lock: every install builds a new state from the current one and
	// stores it under mu. Neither readers nor inserts take it: the active
	// memtable changes only in a commit turn, and only a turn inserts.
	mu    sync.Mutex
	state atomic.Pointer[readState]

	// maint serializes this partition's structural maintenance (flush,
	// internal compaction, major compaction of this partition, quarantine
	// detach) without blocking other partitions. See DB.majorMu for the lock
	// order.
	maint sync.Mutex
	// flushPending is true while a background flush task is queued or has
	// not yet taken maint; it prevents piling up duplicate tasks.
	flushPending atomic.Bool

	// The maintenance-side table containers, touched only under maint; every
	// edit is followed by installTables, which publishes them. l0 is the PM
	// level-0 (empty unless Level0OnPM). tree is the SSD tier: its level 0
	// takes flushes when level-0 is not on PM, and below it sits one sorted
	// run — or, with a positive L1TargetBytes, a leveled hierarchy. corpses
	// is the quarantine (DESIGN.md §5.8): the tables pulled from l0 and tree
	// after a corruption detection, in quarantine order, held until
	// RepairQuarantined salvages what their checksums still vouch for. A
	// published state shares its slice, so it is replaced, never edited in
	// place.
	l0      *level0.Level0
	tree    *levels.Leveled
	corpses []corpse

	// Stats for the cost models (Table II), reset on compaction.
	reads, writes, updates atomic.Int64
	statsSince             atomic.Int64 // unix nanos of the last reset

	// seen tracks key hashes written since the last stats reset — the O(1)
	// update detector feeding n_i^u (Eq. 2).
	seenMu sync.Mutex
	seen   map[uint64]struct{} // guarded by: seenMu
}

// noteKeyWrite records a write in the update detector, reporting whether the
// key was already written since the last reset.
func (p *partition) noteKeyWrite(key []byte) bool {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	p.seenMu.Lock()
	defer p.seenMu.Unlock()
	if p.seen == nil {
		p.seen = make(map[uint64]struct{})
	}
	if _, ok := p.seen[h]; ok {
		return true
	}
	p.seen[h] = struct{}{}
	return false
}

// resetSeen clears the update detector (stats reset).
func (p *partition) resetSeen() {
	p.seenMu.Lock()
	p.seen = nil
	p.seenMu.Unlock()
}

// newDB builds the part of a DB that Open and Recover share, over the devices
// given (pm nil without PM level-0): fault injection, block cache, scheduler
// pool, metrics.
func newDB(cfg Config, pm *pmem.Device, sd *ssd.Device) *DB {
	db := &DB{cfg: cfg, pm: pm, ssd: sd, metrics: newMetrics()}
	if cfg.FaultInjector != nil {
		sd.SetFault(cfg.FaultInjector)
		if pm != nil {
			pm.SetFault(cfg.FaultInjector)
		}
	}
	if cfg.BlockCacheBytes > 0 {
		db.cache = sstable.NewBlockCache(cfg.BlockCacheBytes)
		db.metrics.cache = db.cache
	}
	db.pool = sched.NewPool(cfg.SchedMode, cfg.Workers, cfg.QMax, sd)
	return db
}

// Open creates an engine with fresh devices.
func Open(cfg Config) (*DB, error) {
	cfg = cfg.withDefaults()
	var pm *pmem.Device
	if cfg.Level0OnPM {
		pm = pmem.New(cfg.PMCapacity, cfg.PMProfile)
	}
	db := newDB(cfg, pm, ssd.New(cfg.SSDProfile))
	if !cfg.DisableWAL {
		if pm != nil {
			t, err := wal.NewTail(pm)
			if err != nil {
				return nil, fmt.Errorf("engine: %w", err)
			}
			db.walTail = t
		}
		db.wal = wal.NewTailWriter(db.ssd, db.walTail)
	}

	for i := 0; i <= len(cfg.PartitionBoundaries); i++ {
		db.partitions = append(db.partitions, db.newPartition(i))
	}
	// Install the initial manifest before any write can be acknowledged, so
	// a power cut at any later instant finds a recoverable root.
	if _, err := db.installManifest(0); err != nil {
		return nil, fmt.Errorf("engine: install initial manifest: %w", err)
	}
	db.start()
	return db, nil
}

// newPartition builds partition i of cfg's range partitioning with empty
// table containers and an empty published state.
func (db *DB) newPartition(i int) *partition {
	bounds := db.cfg.PartitionBoundaries
	p := &partition{id: i}
	if i > 0 {
		p.lo = bounds[i-1]
	}
	if i < len(bounds) {
		p.hi = bounds[i]
	}
	p.l0 = level0.New(db.pm, level0.Config{
		Format:          db.cfg.PMTableFormat,
		GroupSize:       db.cfg.GroupSize,
		TargetTableSize: db.cfg.L0TableBytes,
		Retire:          func(t *pmtable.Table) { db.retire(t.Release) },
	})
	p.tree = levels.NewLeveled(db.cfg.L0TriggerTables, db.cfg.L1TargetBytes)
	p.statsSince.Store(clock.NowNanos())
	p.publish(&readState{mem: memtable.New(), stableHalf: &stableHalf{}})
	return p
}

// faultRetries bounds the retry attempts for transient device failures on the
// durability paths (WAL commit, flush, manifest install); faultRetryBackoff is
// the base delay between them, doubled per attempt and waited
// deterministically via internal/clock.
const (
	faultRetries      = 3
	faultRetryBackoff = 100 * time.Microsecond
)

// retryDurable runs op, retrying transient injected faults (fault.IsTransient)
// up to faultRetries times with deterministic exponential backoff. Any
// other error — including a torn write, which must never be blindly repeated
// on an append-ordered device — is returned as-is on the first occurrence.
func (db *DB) retryDurable(op func() error) error {
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || !fault.IsTransient(err) || attempt >= faultRetries {
			return err
		}
		clock.Spin(faultRetryBackoff << uint(attempt))
	}
}

// start readies a DB that Open or Recover has built: the read watermark at
// the sequence they arrived at, nothing pinned, flush-drain bookkeeping, scrub.
func (db *DB) start() {
	db.visible.Store(db.seq.Load())
	db.snapMu.Lock()
	db.snapRefs = map[uint64]int{}
	db.snapMu.Unlock()
	db.flushesCv = sync.NewCond(&db.flushesMu)
	db.startScrub()
}

// Close takes the last turn: every write queued before it commits in full,
// every later one fails with ErrClosed, so nothing appends to the log once
// the turn is over. Scheduled flushes then run to completion.
func (db *DB) Close() error {
	var again bool
	db.turn(func() { again = db.closed.Swap(true) })
	if again {
		return ErrClosed
	}
	db.stopScrub()
	db.drainFlushes()
	db.pool.CloseBackground()
	if db.wal != nil {
		db.wal.Close()
	}
	return nil
}

// setBgErr records the first background failure; backpressured writers poll
// it between flush-help rounds and return it.
func (db *DB) setBgErr(err error) {
	db.bgErr.CompareAndSwap(nil, &err)
}

// loadBgErr returns the sticky background error, if any.
func (db *DB) loadBgErr() error {
	if e := db.bgErr.Load(); e != nil {
		return *e
	}
	return nil
}

// drainFlushes blocks until no background flush task is queued or running.
func (db *DB) drainFlushes() {
	db.flushesMu.Lock()
	for db.flushes > 0 {
		db.flushesCv.Wait()
	}
	db.flushesMu.Unlock()
}

// flushDone marks one background flush task finished.
func (db *DB) flushDone() {
	db.flushesMu.Lock()
	db.flushes--
	if db.flushes == 0 {
		db.flushesCv.Broadcast()
	}
	db.flushesMu.Unlock()
}

// Metrics exposes engine metrics.
func (db *DB) Metrics() *Metrics { return db.metrics }

// PMDevice exposes the PM device (nil when level-0 is on SSD).
func (db *DB) PMDevice() *pmem.Device { return db.pm }

// SSDDevice exposes the SSD device.
func (db *DB) SSDDevice() *ssd.Device { return db.ssd }

// Pool exposes the compaction scheduler pool.
func (db *DB) Pool() *sched.Pool { return db.pool }

// Seq reports the current sequence number.
func (db *DB) Seq() uint64 { return db.seq.Load() }

// route returns the partition owning key.
func (db *DB) route(key []byte) *partition {
	ps := db.partitions
	// Binary search over partitions: first partition whose hi > key.
	lo, hi := 0, len(ps)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if ps[mid].hi != nil && bytes.Compare(ps[mid].hi, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return ps[lo]
}

// span returns the partitions a range read of [start, end) walks, in order:
// from the one start routes to through the last that begins below end.
func (db *DB) span(start, end []byte) []*partition {
	ps := db.partitions[db.route(start).id:]
	for i := 0; end != nil && i < len(ps); i++ {
		if lo := ps[i].lo; lo != nil && bytes.Compare(lo, end) >= 0 {
			return ps[:i]
		}
	}
	return ps
}

// PartitionCount reports the number of range partitions.
func (db *DB) PartitionCount() int { return len(db.partitions) }

// PMUsed reports live PM bytes (0 without PM): level-0's tables and the log
// tail's fixed region.
func (db *DB) PMUsed() int64 {
	if db.pm == nil {
		return 0
	}
	return db.pm.Used()
}

// level0PM reports the PM level-0's tables occupy: everything in use but the
// log tail, whose footprint never changes — Eq. 3's input.
func (db *DB) level0PM() int64 {
	if db.walTail == nil {
		return db.PMUsed()
	}
	return db.PMUsed() - wal.TailBytes
}

// collectEntries drains it, from where it stands, into a slice that owns its
// entries: a retain iterator hands out buffers of its own for every entry, so
// they are kept, not copied. A source that failed leaves the slice short, and
// its error says so.
func collectEntries(it *kv.RetainIterator) ([]kv.Entry, error) {
	var out []kv.Entry
	for ; it.Valid(); it.Next() {
		out = append(out, it.Entry())
	}
	return out, it.Err()
}
