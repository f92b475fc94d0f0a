// This file feeds the deterministic cost models (partitionCostState is
// Table II's observation point), so unlike the rest of the engine it may not
// read the wall clock directly; time arrives through pmblade/internal/clock.

//pmblade:deterministic file

package engine

import (
	"pmblade/internal/clock"
	"pmblade/internal/compaction"
	"pmblade/internal/costmodel"
	"pmblade/internal/device"
	"pmblade/internal/kv"
	"pmblade/internal/pmem"
	"pmblade/internal/sched"
	"pmblade/internal/sstable"
)

// localCompactionStrategy applies the per-partition half of Algorithm 1
// after a flush touched p: leveled compaction (RocksDB mode), the SSD
// level-0 threshold, or internal compaction per the cost models. It touches
// only p, so partitions maintain themselves in parallel. Callers hold
// p.maint and must NOT hold majorMu.
func (db *DB) localCompactionStrategy(p *partition) error {
	s := p.state.Load()
	switch {
	case db.cfg.RocksDB:
		return db.runLeveledCompactions(p)
	case !db.cfg.Level0OnPM:
		// PMBlade-SSD: threshold strategy on the SSD level-0.
		if len(s.ssdL0) >= db.cfg.L0TriggerTables {
			return db.majorCompactSSDPartition(p)
		}
		return nil
	}

	if db.cfg.InternalCompaction {
		if db.cfg.CostBased {
			st := db.partitionCostState(p)
			if ok, _ := db.cfg.Cost.ShouldInternalCompact(st); ok {
				return db.internalCompact(p)
			}
		} else if len(s.pmUnsorted) >= db.cfg.L0TriggerTables {
			return db.internalCompact(p)
		}
	}
	return nil
}

// globalCompactionCheck applies the cross-partition half of Algorithm 1:
// the cost-based eviction trigger (τ_m) or the conventional global-wipe
// threshold. Callers must hold NO maintenance locks. Both triggers funnel
// into evictOnce, so concurrent checks join one eviction pass instead of
// queueing up behind majorMu.
func (db *DB) globalCompactionCheck() error {
	if db.cfg.RocksDB || !db.cfg.Level0OnPM {
		return nil
	}
	if db.cfg.CostBased {
		if db.cfg.Cost.NeedMajor(db.pm.Used()) {
			return db.majorCompactEvict()
		}
		return nil
	}
	// Threshold strategy (PMBlade-PM): "when the number of PM tables reaches
	// the threshold, the whole level-0 will be compacted to level-1" — a
	// global wipe, which is exactly why the conventional strategy fails to
	// retain warm data in PM (Figure 8(b)). The count here is a cheap
	// pre-check; wipeLevel0 re-decides under majorMu.
	if db.pmTableCount() < db.cfg.L0TriggerTables {
		return nil
	}
	return db.evictOnce(db.wipeLevel0)
}

// pmTableCount counts the PM level-0 tables of every partition.
func (db *DB) pmTableCount() int {
	total := 0
	for _, p := range db.partitions {
		s := p.state.Load()
		total += len(s.pmUnsorted) + len(s.pmSorted)
	}
	return total
}

// evictOnce is the cross-partition eviction singleflight: at most one
// eviction pass (cost-based Eq. 3 or threshold wipe) runs at a time, and
// concurrent triggers share a pass instead of queueing redundant ones
// behind majorMu. decide runs the pass; evictOnce then installs the
// deferred-retirement manifest exactly once — even when some victims
// failed, so the surviving victims' installed runs become durable — and
// charges the eviction wall-time metrics. Callers hold no locks.
//
// A caller is guaranteed the result of a pass whose victim decision was
// made AFTER the caller arrived. Joining a pass that was already in flight
// is not enough — its decision may predate the state the caller needs
// relieved (a writer that hit pmem.ErrOutOfSpace needs an eviction that saw
// the exhausted PM, or its one flush retry fails and poisons bgErr) — so a
// stale joiner waits the pass out and then runs or joins a second one. Any
// pass in flight by then started after the first finished, hence after the
// caller arrived, so one follow-up suffices.
func (db *DB) evictOnce(decide func() error) error {
	st, started := db.joinOrStartEviction()
	if !started {
		<-st.done
		if st.err != nil {
			return st.err
		}
		if st, started = db.joinOrStartEviction(); !started {
			<-st.done
			return st.err
		}
	}
	sw := clock.NewStopwatch()
	err := decide()
	if merr := db.installAfterMajor(); err == nil {
		err = merr
	}
	db.metrics.EvictionCount.Add(1)
	db.metrics.EvictionWallNanos.Add(int64(sw.Elapsed()))
	db.finishEviction(st, err)
	return err
}

// joinOrStartEviction returns the in-flight eviction pass (started=false) or
// registers a new one owned by the caller (started=true).
func (db *DB) joinOrStartEviction() (st *evictState, started bool) {
	db.evictMu.Lock()
	defer db.evictMu.Unlock()
	if db.evictInflight != nil {
		return db.evictInflight, false
	}
	st = &evictState{done: make(chan struct{})}
	db.evictInflight = st
	return st, true
}

// finishEviction publishes the pass result and releases the waiters. The
// error is written before done closes, so joiners always read a settled st.
func (db *DB) finishEviction(st *evictState, err error) {
	db.evictMu.Lock()
	db.evictInflight = nil
	db.evictMu.Unlock()
	st.err = err
	close(st.done)
}

// wipeLevel0 is the conventional global wipe: if the table count is still
// over the threshold, every partition is a victim.
func (db *DB) wipeLevel0() error {
	db.majorMu.Lock()
	var victims []*partition
	if db.pmTableCount() >= db.cfg.L0TriggerTables {
		victims = db.partitions
	}
	db.majorMu.Unlock()
	return db.compactVictims(victims)
}

// installAfterMajor installs a manifest and frees the tables the preceding
// major compactions retired, so eviction actually returns PM (and SSD) space
// rather than leaving it queued until the next checkpoint. Callers hold no
// locks — lockAll takes majorMu and every maint itself. Without a WAL
// retirement was immediate and there is no manifest, so this is a no-op.
func (db *DB) installAfterMajor() error {
	if db.cfg.DisableWAL {
		return nil
	}
	db.lockAll()
	defer db.unlockAll()
	_, err := db.saveManifestLocked(0)
	return err
}

// partitionCostState assembles the Table II observations for the cost model
// from p's published state.
func (db *DB) partitionCostState(p *partition) costmodel.PartitionState {
	elapsed := clock.SecondsSince(p.statsSince.Load())
	if elapsed < 1e-3 {
		elapsed = 1e-3
	}
	reads := p.reads.Load()
	s := p.state.Load()
	st := costmodel.PartitionState{
		ID:          p.id,
		Unsorted:    len(s.pmUnsorted),
		Sorted:      len(s.pmSorted),
		Reads:       reads,
		Writes:      p.writes.Load(),
		Updates:     p.updates.Load(),
		ReadsPerSec: float64(reads) / elapsed,
	}
	for _, t := range s.pmTables() {
		st.Size += t.SizeBytes()
		st.TotalRecords += int64(t.Len())
	}
	return st
}

// resetPartitionStats re-zeroes the per-partition counters, as the paper
// prescribes after internal or major compaction.
func resetPartitionStats(p *partition) {
	p.reads.Store(0)
	p.writes.Store(0)
	p.updates.Store(0)
	p.statsSince.Store(clock.NowNanos())
	p.resetSeen()
}

// internalCompact runs an internal compaction for p. Tombstones survive
// whenever the partition has data on SSD. If PM lacks the transient space
// the compaction needs, the partition is major-compacted instead (which
// frees PM rather than consuming it). Callers hold p.maint.
//
//pmblade:compacts
func (db *DB) internalCompact(p *partition) error {
	keepTombstones := p.run().Len() > 0
	_, err := p.l0.CompactInternal(keepTombstones, db.retentionBounds())
	if err == pmem.ErrOutOfSpace {
		return db.majorCompactPartition(p)
	}
	if err != nil {
		return err
	}
	db.metrics.InternalCount.Add(1)
	db.installTables(p, nil, true)
	resetPartitionStats(p)
	return nil
}

// majorCompactEvict performs the cost-based major compaction: Eq. 3 selects
// the partition set Φ to preserve; every other partition's level-0 is
// compacted to SSD and evicted from PM. Concurrent callers join the
// in-flight pass (see evictOnce). Callers must hold no maint lock.
func (db *DB) majorCompactEvict() error {
	return db.evictOnce(db.evictByCost)
}

// evictByCost is the decision half of the cost-based pass. The Eq. 3
// knapsack is the one computation that spans partitions, and it is the ONLY
// thing that happens under majorMu: observe every partition, solve
// SelectPreserved, snapshot the victim set, release the lock. The victims
// are then compacted with no global lock held, so partitions in Φ keep
// flushing and serving reads throughout.
func (db *DB) evictByCost() error {
	db.majorMu.Lock()
	states := make([]costmodel.PartitionState, 0, len(db.partitions))
	for _, p := range db.partitions {
		states = append(states, db.partitionCostState(p))
	}
	preserved := db.cfg.Cost.SelectPreserved(states)
	var victims []*partition
	for _, id := range costmodel.Victims(states, preserved) {
		victims = append(victims, db.partitions[id])
	}
	db.majorMu.Unlock()
	return db.compactVictims(victims)
}

// compactVictims compacts the snapshot victim set to SSD, each victim under
// its own maint lock. Fan-out across victims is bounded by the scheduler
// pool (and each victim's own compaction is staged as CauseMajor subtasks,
// so the q_flush admission policy still smooths the I/O); under SyncFlush
// victims run sequentially in ascending partition order instead, because
// crash-point enumeration replays a workload and needs the identical
// device-op sequence on every pass. The pass is failure-isolated: one
// victim's error does not abort the rest, each victim's result is installed
// per-partition inside majorCompactPartition, and the first error is
// returned only after every victim has run. Callers hold no locks.
func (db *DB) compactVictims(victims []*partition) error {
	if len(victims) == 0 {
		return nil
	}
	errs := make([]error, len(victims))
	db.fanPartitions(len(victims), func(i int) {
		p := victims[i]
		sw := clock.NewStopwatch()
		p.maint.Lock()
		db.metrics.EvictVictimsInFlight.Add(1)
		errs[i] = db.majorCompactPartition(p)
		db.metrics.EvictVictimsInFlight.Add(-1)
		p.maint.Unlock()
		db.metrics.VictimStallNanos.Add(int64(sw.Elapsed()))
	})
	return firstError(errs)
}

// fanPartitions runs task(0..n-1) through the pool's bounded fan-out, or
// sequentially in index order under SyncFlush (deterministic device-op
// order for crash-point enumeration).
func (db *DB) fanPartitions(n int, task func(i int)) {
	if db.cfg.SyncFlush {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	db.pool.Fan(n, task)
}

// firstError returns the first non-nil error of a fan-out.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// majorCompactPartition compacts p's entire PM level-0 together with the
// overlapping SSD run tables into a new run, using the coroutine pool with
// range-split subtasks, then evicts level-0 from PM. Callers hold p.maint —
// required, since Evict drops every level-0 table and must not race a
// concurrent flush installing one.
func (db *DB) majorCompactPartition(p *partition) error {
	unsorted, sorted := p.l0.Tables()
	if len(unsorted)+len(sorted) == 0 {
		return nil
	}
	oldRun := p.run().Tables()

	// Boundaries for the task splitter: table bounds from all inputs.
	var bounds [][]byte
	for _, t := range unsorted {
		bounds = append(bounds, t.Smallest(), t.Largest())
	}
	for _, t := range sorted {
		bounds = append(bounds, t.Smallest(), t.Largest())
	}
	for _, t := range oldRun {
		bounds = append(bounds, t.Smallest(), t.Largest())
	}

	makeSources := func(lo []byte) []kv.Iterator {
		var its []kv.Iterator
		for _, t := range unsorted {
			its = append(its, t.NewIterator())
		}
		for _, t := range sorted {
			its = append(its, t.NewIterator())
		}
		for _, t := range oldRun {
			its = append(its, t.NewCompactionIterator(256<<10))
		}
		for _, it := range its {
			if lo == nil {
				it.SeekToFirst()
			} else {
				it.SeekGE(lo)
			}
		}
		return its
	}

	newTables, err := db.runMajor(makeSources, bounds)
	if err != nil {
		return err
	}

	// Install the new run, then retire inputs. Disposal is deferred until the
	// next manifest install when a WAL is in use (see DB.retireSST).
	p.run().Replace(oldRun, newTables)
	p.l0.Evict()
	db.installTables(p, nil, true)
	for _, t := range oldRun {
		db.retireSST(t)
	}
	db.metrics.MajorCount.Add(1)
	resetPartitionStats(p)
	return nil
}

// majorCompactSSDPartition is the PMBlade-SSD path: merge the SSD level-0
// tables with the overlapping run tables.
func (db *DB) majorCompactSSDPartition(p *partition) error {
	l0 := p.tree.L0Tables()
	if len(l0) == 0 {
		return nil
	}
	oldRun := p.run().Tables()
	var bounds [][]byte
	for _, t := range l0 {
		bounds = append(bounds, t.Smallest(), t.Largest())
	}
	for _, t := range oldRun {
		bounds = append(bounds, t.Smallest(), t.Largest())
	}
	makeSources := func(lo []byte) []kv.Iterator {
		var its []kv.Iterator
		for _, t := range l0 {
			its = append(its, t.NewCompactionIterator(256<<10))
		}
		for _, t := range oldRun {
			its = append(its, t.NewCompactionIterator(256<<10))
		}
		for _, it := range its {
			if lo == nil {
				it.SeekToFirst()
			} else {
				it.SeekGE(lo)
			}
		}
		return its
	}
	newTables, err := db.runMajor(makeSources, bounds)
	if err != nil {
		return err
	}
	p.run().Replace(oldRun, newTables)
	p.tree.RemoveL0(l0)
	db.installTables(p, nil, true)
	for _, t := range l0 {
		db.retireSST(t)
	}
	for _, t := range oldRun {
		db.retireSST(t)
	}
	db.metrics.MajorCount.Add(1)
	resetPartitionStats(p)
	return nil
}

// discardTables deletes freshly built, never-installed compaction outputs
// after a sibling subtask failed: no manifest references them and no cache
// holds their blocks (AttachCache happens only on success), so the files can
// be removed immediately even when deferred retirement is in effect.
func discardTables(results [][]*sstable.Table) {
	for i := range results {
		for _, t := range results[i] {
			t.Delete()
		}
	}
}

// runMajor executes a major compaction through the scheduler pool, split
// into range subtasks across workers (Section V-C). makeSources must return
// fresh iterators positioned at lo.
//
//pmblade:compacts
func (db *DB) runMajor(makeSources func(lo []byte) []kv.Iterator, bounds [][]byte) ([]*sstable.Table, error) {
	nTasks := db.cfg.Workers * db.pool.K()
	splits := compaction.SplitRange(bounds, nTasks)
	// One retention snapshot for the whole compaction: subtasks cover
	// disjoint key ranges, but every key's versions must be judged against
	// the same boundary set.
	retBounds := db.retentionBounds()

	type rng struct{ lo, hi []byte }
	var ranges []rng
	var lo []byte
	for _, s := range splits {
		ranges = append(ranges, rng{lo, s})
		lo = s
	}
	ranges = append(ranges, rng{lo, nil})

	results := make([][]*sstable.Table, len(ranges))
	errs := make([]error, len(ranges))
	tasks := make([]sched.Task, 0, len(ranges))
	for i, r := range ranges {
		i, r := i, r
		tasks = append(tasks, func(ctx *sched.Ctx) {
			results[i], errs[i] = compaction.Run(ctx, makeSources(r.lo), compaction.Params{
				Dev:              db.ssd,
				Cause:            device.CauseMajor,
				DropTombstones:   true, // the run is the bottom level
				Boundaries:       retBounds,
				TargetTableBytes: db.cfg.SSTableBytes,
				Hi:               r.hi,
				BreakOnWrite:     db.cfg.SchedMode != sched.ModePMBlade,
				Compress:         db.cfg.BlockCompression,
			})
		})
	}
	db.pool.Run(tasks)
	if err := firstError(errs); err != nil {
		// One failed range subtask must not strand its siblings' finished
		// tables on SSD forever.
		discardTables(results)
		return nil, err
	}
	var out []*sstable.Table
	for i := range results {
		for _, t := range results[i] {
			t.AttachCache(db.cache)
		}
		out = append(out, results[i]...)
	}
	return out, nil
}

// runLeveledCompactions drives the RocksDB-emulation hierarchy until no
// level is over its trigger.
func (db *DB) runLeveledCompactions(p *partition) error {
	for {
		level, ok := p.tree.PickCompaction()
		if !ok {
			return nil
		}
		if err := db.compactLeveledOnce(p, level); err != nil {
			return err
		}
	}
}

// compactLeveledOnce merges one level into the next.
//
//pmblade:compacts
func (db *DB) compactLeveledOnce(p *partition, level int) error {
	var inputs []*sstable.Table
	var lo, hi []byte
	if level == 0 {
		inputs = p.tree.L0Tables()
		for _, t := range inputs {
			if lo == nil || string(t.Smallest()) < string(lo) {
				lo = t.Smallest()
			}
			if hi == nil || string(t.Largest()) > string(hi) {
				hi = t.Largest()
			}
		}
	} else {
		// Pick the first table of the over-target level (round-robin by key
		// would be better; first-table keeps it deterministic).
		src := p.tree.Run(level).Tables()
		if len(src) == 0 {
			return nil
		}
		inputs = src[:1]
		lo, hi = inputs[0].Smallest(), inputs[0].Largest()
	}
	next := p.tree.Run(level + 1)
	overlap := next.Overlapping(lo, hi)
	all := append(append([]*sstable.Table(nil), inputs...), overlap...)

	// Bottom level drops tombstones.
	bottom := level+1 >= p.tree.Levels() && len(p.tree.Run(level+1).Tables()) == len(overlap)
	deeperEmpty := true
	for l := level + 2; l <= p.tree.Levels(); l++ {
		if p.tree.Run(l).Len() > 0 {
			deeperEmpty = false
			break
		}
	}
	drop := bottom && deeperEmpty

	var bounds [][]byte
	for _, t := range all {
		bounds = append(bounds, t.Smallest(), t.Largest())
	}
	makeSources := func(seekLo []byte) []kv.Iterator {
		var its []kv.Iterator
		for _, t := range all {
			its = append(its, t.NewCompactionIterator(256<<10))
		}
		for _, it := range its {
			if seekLo == nil {
				it.SeekToFirst()
			} else {
				it.SeekGE(seekLo)
			}
		}
		return its
	}

	nTasks := db.cfg.Workers * db.pool.K()
	splits := compaction.SplitRange(bounds, nTasks)
	retBounds := db.retentionBounds()
	type rng struct{ lo, hi []byte }
	var ranges []rng
	var cur []byte
	for _, s := range splits {
		ranges = append(ranges, rng{cur, s})
		cur = s
	}
	ranges = append(ranges, rng{cur, nil})
	results := make([][]*sstable.Table, len(ranges))
	errs := make([]error, len(ranges))
	var tasks []sched.Task
	for i, r := range ranges {
		i, r := i, r
		tasks = append(tasks, func(ctx *sched.Ctx) {
			results[i], errs[i] = compaction.Run(ctx, makeSources(r.lo), compaction.Params{
				Dev:              db.ssd,
				Cause:            device.CauseLeveled,
				DropTombstones:   drop,
				Boundaries:       retBounds,
				TargetTableBytes: db.cfg.SSTableBytes,
				Hi:               r.hi,
				BreakOnWrite:     db.cfg.SchedMode != sched.ModePMBlade,
				Compress:         db.cfg.BlockCompression,
			})
		})
	}
	db.pool.Run(tasks)
	if err := firstError(errs); err != nil {
		// Same leak as runMajor: drop the successful siblings' outputs.
		discardTables(results)
		return err
	}
	var outTables []*sstable.Table
	for i := range results {
		for _, t := range results[i] {
			t.AttachCache(db.cache)
		}
		outTables = append(outTables, results[i]...)
	}

	next.Replace(overlap, outTables)
	if level == 0 {
		p.tree.RemoveL0(inputs)
	} else {
		p.tree.Run(level).Replace(inputs, nil)
	}
	db.installTables(p, nil, true)
	for _, t := range all {
		db.retireSST(t)
	}
	db.metrics.MajorCount.Add(1)
	return nil
}

// CompactNow forces maintenance: flush everything and run the strategy (used
// by experiments that trigger compaction manually, like Tables IV and V).
func (db *DB) CompactNow() error {
	return db.FlushAll()
}

// InternalCompactAll forces an internal compaction on every partition
// regardless of the cost models (Table IV triggers compaction manually).
// Without a PM level-0 there is nothing to compact internally.
func (db *DB) InternalCompactAll() error {
	if !db.cfg.Level0OnPM {
		return nil
	}
	for _, p := range db.partitions {
		p.maint.Lock()
		err := db.internalCompact(p)
		p.maint.Unlock()
		if err != nil {
			return err
		}
	}
	return db.installAfterMajor()
}

// MajorCompactAll forces a major compaction of every partition (tests and
// experiments trigger compaction manually). No cross-partition decision is
// involved, so majorMu is never held: each partition compacts under its own
// maint lock, fanned out through the pool like an eviction pass.
func (db *DB) MajorCompactAll() error {
	errs := make([]error, len(db.partitions))
	db.fanPartitions(len(db.partitions), func(i int) {
		p := db.partitions[i]
		p.maint.Lock()
		defer p.maint.Unlock()
		switch {
		case db.cfg.RocksDB:
			errs[i] = db.runLeveledCompactions(p)
		case db.cfg.Level0OnPM:
			errs[i] = db.majorCompactPartition(p)
		default:
			errs[i] = db.majorCompactSSDPartition(p)
		}
	})
	if err := firstError(errs); err != nil {
		return err
	}
	return db.installAfterMajor()
}
