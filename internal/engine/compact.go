// This file feeds the deterministic cost models (partitionCostState is
// Table II's observation point), so unlike the rest of the engine it may not
// read the wall clock directly; time arrives through pmblade/internal/clock.

//pmblade:deterministic file

package engine

import (
	"bytes"
	"errors"
	"slices"

	"pmblade/internal/clock"
	"pmblade/internal/compaction"
	"pmblade/internal/costmodel"
	"pmblade/internal/device"
	"pmblade/internal/kv"
	"pmblade/internal/levels"
	"pmblade/internal/pmem"
	"pmblade/internal/pmtable"
	"pmblade/internal/sched"
	"pmblade/internal/sstable"
)

// localCompactionStrategy applies the per-partition half of Algorithm 1
// after a flush touched p: the SSD tree's own steps (its level-0 trigger —
// never reached while level-0 lives on PM — and, in a hierarchy, its level
// targets), then internal compaction per the cost models or the threshold.
// It touches only p, so partitions maintain themselves in parallel. Callers
// hold p.maint and must NOT hold majorMu.
func (db *DB) localCompactionStrategy(p *partition) error {
	if err := db.runLeveledCompactions(p); err != nil || !db.cfg.InternalCompaction {
		return err
	}
	if db.cfg.CostBased {
		st := db.partitionCostState(p)
		if ok, _ := db.cfg.Cost.ShouldInternalCompact(st); ok {
			return db.internalCompact(p)
		}
	} else if len(p.state.Load().pmUnsorted) >= db.cfg.L0TriggerTables {
		return db.internalCompact(p)
	}
	return nil
}

// globalCompactionCheck applies the cross-partition half of Algorithm 1:
// the cost-based eviction trigger (τ_m) or the conventional global-wipe
// threshold. Callers must hold NO maintenance locks. Both triggers funnel
// into evictOnce, so concurrent checks join one eviction pass instead of
// queueing up behind majorMu. Without PM neither fires: nothing is in use
// and there is no table to count.
func (db *DB) globalCompactionCheck() error {
	var err error
	if db.cfg.CostBased {
		if db.cfg.Cost.NeedMajor(db.level0PM()) {
			_, err = db.evictOnce(db.costVictims)
		}
	} else if db.pmTableCount() >= db.cfg.L0TriggerTables {
		// Threshold strategy (PMBlade-PM): "when the number of PM tables
		// reaches the threshold, the whole level-0 will be compacted to
		// level-1" — a global wipe, which is exactly why the conventional
		// strategy fails to retain warm data in PM (Figure 8(b)). The count
		// here is a cheap pre-check; wipeVictims re-decides under majorMu.
		_, err = db.evictOnce(db.wipeVictims)
	}
	return err
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
// eviction pass (cost-based Eq. 3 or threshold wipe) runs at a time, and a
// trigger that finds one in flight waits for it and shares its error instead
// of queueing a redundant pass behind majorMu. The owner of a pass runs
// choose under majorMu — the victim decision is the ONLY thing that lock
// covers — compacts the victims with no global lock held, then installs the
// deferred-retirement manifest exactly once, even when some victims failed,
// so the surviving victims' installed runs become durable and their PM comes
// back. Callers hold no locks.
//
// idle reports that this caller owned the pass and it had nothing to give:
// no victim, and no retired table waiting on the manifest install. A
// joiner never reports idle — the pass it waited for was decided before it
// arrived and says nothing about the state it needs relieved.
func (db *DB) evictOnce(choose func() []*partition) (idle bool, err error) {
	st, started := db.joinOrStartEviction()
	if !started {
		<-st.done
		return false, st.err
	}
	sw := clock.NewStopwatch()
	db.majorMu.Lock()
	victims := choose()
	db.majorMu.Unlock()
	err = db.compactVictims(victims)
	db.obsoleteMu.Lock()
	idle = len(victims) == 0 && len(db.obsolete) == 0
	db.obsoleteMu.Unlock()
	if _, merr := db.installManifest(0); err == nil {
		err = merr
	}
	db.metrics.EvictionCount.Add(1) // also the pass generation flushAndMaintain compares
	db.metrics.EvictionWallNanos.Add(int64(sw.Elapsed()))
	db.finishEviction(st, err)
	return idle, err
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

// wipeVictims is the conventional global wipe's decision: if the table count
// is still over the threshold, every partition is a victim. Runs under
// majorMu (evictOnce).
func (db *DB) wipeVictims() []*partition {
	if db.pmTableCount() >= db.cfg.L0TriggerTables {
		return db.partitions
	}
	return nil
}

// costVictims is the cost-based decision: Eq. 3 selects the partition set Φ
// to preserve, and every other partition's level-0 is compacted to SSD and
// evicted from PM. The knapsack is the one computation that spans
// partitions, which is why it runs under majorMu (evictOnce): observe every
// partition, solve SelectPreserved, snapshot the victim set. The victims are
// then compacted with no global lock held, so partitions in Φ keep flushing
// and serving reads throughout.
func (db *DB) costVictims() []*partition {
	states := make([]costmodel.PartitionState, 0, len(db.partitions))
	for _, p := range db.partitions {
		states = append(states, db.partitionCostState(p))
	}
	preserved := db.cfg.Cost.SelectPreserved(states)
	var victims []*partition
	for _, id := range costmodel.Victims(states, preserved) {
		victims = append(victims, db.partitions[id])
	}
	return victims
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

// mayDropTombstones is the one place a compaction of p decides whether
// deletion markers can go. They can only when nothing older than the
// compaction's output is left for them to shadow: every SSD table from level
// dest down is being rewritten by this very job (merged are its tables of
// level dest), and p holds no corpse — one awaiting salvage sits logically
// below everything, and a tombstone dropped above it lets repair bring the
// deleted value back. Repair's own job still holds the corpses it salvages:
// they leave at its install.
func (p *partition) mayDropTombstones(dest int, merged []*sstable.Table) bool {
	older := -len(merged)
	for l := dest; l <= p.tree.Levels(); l++ {
		older += p.tree.Run(l).Len()
	}
	return older == 0 && len(p.corpses) == 0
}

// maintain runs job — a flush or a compaction of p — under p.maint, and again
// for as long as it fails on a rotted input. Such a job has installed nothing,
// so with the lock released the table is quarantined as a read that met it
// would have done (healCorruption) and the job runs without the corpse, whose
// keys read as ErrUnavailable until RepairQuarantined. Any other error is the
// job's own; so is corruption that quarantined nothing — it names no table
// the job can be rid of, and running again would only meet it again.
func (db *DB) maintain(p *partition, job func() error) error {
	for {
		quarantined := db.metrics.QuarantineIncidents.Load()
		p.maint.Lock()
		err := job()
		p.maint.Unlock()
		if err == nil || !db.healCorruption(p, err) || db.metrics.QuarantineIncidents.Load() == quarantined {
			return err
		}
	}
}

// internalCompact runs an internal compaction for p. Its output stays above
// the whole SSD tier, so tombstones go only when that tier is empty (level 1
// down: no SSD level-0 exists under a PM level-0). If PM lacks the transient
// space the compaction needs, the partition is major-compacted instead
// (which frees PM rather than consuming it). With no PM table there is no
// input: it installs nothing and counts nothing. Callers hold p.maint.
//
//pmblade:compacts
func (db *DB) internalCompact(p *partition) error {
	stats, err := p.l0.CompactInternal(!p.mayDropTombstones(1, nil), db.retentionBounds())
	if errors.Is(err, pmem.ErrOutOfSpace) {
		return db.majorCompact(p, nil, nil)
	}
	if err != nil || stats.TablesIn == 0 {
		return err
	}
	db.metrics.InternalCount.Add(1)
	db.installTables(p, nil, true)
	resetPartitionStats(p)
	return nil
}

// compactVictims compacts the snapshot victim set to SSD, each victim under
// its own maint lock. Fan-out across victims is bounded by the scheduler
// pool (and each victim's own compaction is staged as CauseMajor subtasks,
// so the q_flush admission policy still smooths the I/O); under SyncFlush
// victims run sequentially in ascending partition order instead, because
// crash-point enumeration replays a workload and needs the identical
// device-op sequence on every pass. The pass is failure-isolated: one
// victim's error does not abort the rest, each victim's result is installed
// per-partition inside compactToSSD, and the first error is returned only
// after every victim has run. Callers hold no locks.
func (db *DB) compactVictims(victims []*partition) error {
	if len(victims) == 0 {
		return nil
	}
	errs := make([]error, len(victims))
	db.fanPartitions(len(victims), func(i int) {
		p := victims[i]
		sw := clock.NewStopwatch()
		errs[i] = db.maintain(p, func() error {
			db.metrics.EvictVictimsInFlight.Add(1)
			defer db.metrics.EvictVictimsInFlight.Add(-1)
			return db.majorCompact(p, nil, nil)
		})
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

// compactionReadahead is the device readahead of an SSD table feeding a
// compaction: sequential input is fetched in spans of this size (S1).
const compactionReadahead = 256 << 10

// ssdJob describes one compaction into a partition's SSD tier. Everything
// that writes SSTables below level 0 is compactToSSD run on a different
// description (DESIGN.md §5.6 has the table): trigger, inputs and
// granularity are parameters of one procedure, not separate programs.
type ssdJob struct {
	// The inputs leave levels from through to-1 and the outputs land in to.
	// Level 0 is the PM level-0 and the SSD level-0 together — a layout fills
	// one of them, the other is empty — and it always leaves whole.
	from, to int
	// inputs are the SSD tables leaving those levels, newest first.
	inputs []*sstable.Table
	// merged are the tables of level to rewritten together with them.
	merged []*sstable.Table
	// salvage (repair only) yields the entries of quarantined corpses whose
	// block CRCs still verify. A salvage iterator cannot be reopened per
	// range, so a job that carries any runs as a single range, which also
	// keeps its skip counter attributable. corpses are the corpses repaired:
	// they leave the partition in the install that adds the outputs.
	salvage []*sstable.Iterator
	corpses []corpse
	cause   device.Cause
}

// majorCompact is the one full compaction: p's whole level 0 and every SSD
// level above the bottom merge into the bottom level, which is rewritten
// whole, and level-0 is evicted from PM. In a one-run layout the bottom is
// level 1 and this is PM-Blade's major compaction — one of the two level-0
// containers is simply empty. Repair is this job plus the salvage iterators
// of the corpses it releases. Callers hold p.maint — required, since the
// install drops every level-0 table and must not race a concurrent flush
// installing one.
func (db *DB) majorCompact(p *partition, salvage []*sstable.Iterator, corpses []corpse) error {
	runs := p.tree.RunTables()
	bottom := len(runs)
	return db.compactToSSD(p, ssdJob{
		to:      bottom,
		inputs:  slices.Concat(p.tree.L0Tables(), slices.Concat(runs[:bottom-1]...)),
		merged:  runs[bottom-1],
		salvage: salvage,
		corpses: corpses,
		cause:   device.CauseMajor,
	})
}

// leveledStep describes merging level into the next one: all of level 0, or
// the first table of a deeper level (round-robin by key would be better;
// first-table keeps it deterministic), with the tables of the next level
// that their key range overlaps.
func leveledStep(tree *levels.Leveled, level int) ssdJob {
	j := ssdJob{from: level, to: level + 1, inputs: tree.L0Tables(), cause: device.CauseLeveled}
	if level > 0 {
		src := tree.Run(level).Tables()
		j.inputs = src[:min(1, len(src))]
	}
	var lo, hi []byte
	for _, t := range j.inputs {
		if lo == nil || bytes.Compare(t.Smallest(), lo) < 0 {
			lo = t.Smallest()
		}
		if hi == nil || bytes.Compare(t.Largest(), hi) > 0 {
			hi = t.Largest()
		}
	}
	j.merged = tree.Run(j.to).Overlapping(lo, hi)
	return j
}

// runLeveledCompactions runs leveled steps on p's SSD tree until no level is
// over its trigger. A one-run tree has one: level 0 into the run.
func (db *DB) runLeveledCompactions(p *partition) error {
	for {
		level, ok := p.tree.PickCompaction()
		if !ok {
			return nil
		}
		if err := db.compactToSSD(p, leveledStep(p.tree, level)); err != nil {
			return err
		}
	}
}

// compactToSSD executes j on p: one iterator per input, the key range cut
// into subtasks for the scheduler pool (Section V-C), the outputs installed
// in place of the inputs, the inputs retired. On error — an input that failed
// to read or decode included — nothing is installed: the inputs keep serving
// and RunRanges has already deleted whatever the subtasks built. Callers hold
// p.maint (through maintain, if a rotted input is to be quarantined).
//
//pmblade:compacts
func (db *DB) compactToSSD(p *partition, j ssdJob) error {
	var pm []*pmtable.Table
	if j.from == 0 {
		unsorted, sorted := p.l0.Tables()
		pm = append(slices.Clone(unsorted), sorted...)
	}
	if len(pm)+len(j.inputs)+len(j.salvage) == 0 {
		return nil
	}
	ssts := append(slices.Clone(j.inputs), j.merged...)

	// Table bounds of every input feed the task splitter.
	var bounds [][]byte
	for _, t := range pm {
		bounds = append(bounds, t.Smallest(), t.Largest())
	}
	for _, t := range ssts {
		bounds = append(bounds, t.Smallest(), t.Largest())
	}
	// Newest source first: PM unsorted, PM sorted, the tables leaving from,
	// the destination's, and whatever the corpses still vouch for.
	sources := func(lo []byte) []kv.Iterator {
		its := make([]kv.Iterator, 0, len(pm)+len(ssts)+len(j.salvage))
		for _, t := range pm {
			its = append(its, t.NewIterator())
		}
		for _, t := range ssts {
			its = append(its, t.NewCompactionIterator(compactionReadahead))
		}
		for _, s := range j.salvage {
			its = append(its, s)
		}
		kv.Seek(lo, its...)
		return its
	}
	nTasks := db.cfg.Workers * db.pool.K()
	if len(j.salvage) > 0 {
		nTasks = 1
	}
	params := compaction.Params{
		Dev:            db.ssd,
		Cause:          j.cause,
		DropTombstones: p.mayDropTombstones(j.to, j.merged),
		// One retention snapshot for the whole job: subtasks cover disjoint
		// key ranges, but every key's versions must be judged against the
		// same boundary set.
		Boundaries:       db.retentionBounds(),
		TargetTableBytes: db.cfg.SSTableBytes,
		BreakOnWrite:     db.cfg.SchedMode != sched.ModePMBlade,
	}
	out, err := compaction.RunRanges(db.pool, bounds, nTasks, func(ctx *sched.Ctx, lo, hi []byte) ([]*sstable.Table, error) {
		rp := params
		rp.Hi = hi
		return compaction.Run(ctx, sources(lo), rp)
	})
	if err != nil {
		return err
	}
	for _, t := range out {
		t.AttachCache(db.cache)
	}

	// Install the outputs in place of the inputs and the repaired corpses,
	// then retire both (DB.retire); the inputs' cached blocks go at once —
	// they will not be read through these tables again.
	p.tree.Run(j.to).Replace(j.merged, out)
	p.tree.Remove(j.inputs...)
	if j.from == 0 {
		p.l0.Evict()
	}
	p.dropCorpses(j.corpses)
	db.installTables(p, nil, true)
	for _, t := range ssts {
		t.DropCached()
		db.retire(t.Delete)
	}
	db.retireCorpses(j.corpses)
	for _, s := range j.salvage {
		db.metrics.RepairBlocksSkipped.Add(int64(s.Skipped()))
	}
	db.metrics.MajorCount.Add(1)
	resetPartitionStats(p)
	return nil
}

// InternalCompactAll forces an internal compaction on every partition
// regardless of the cost models (Table IV triggers compaction manually).
func (db *DB) InternalCompactAll() error {
	for _, p := range db.partitions {
		if err := db.maintain(p, func() error { return db.internalCompact(p) }); err != nil {
			return err
		}
	}
	_, err := db.installManifest(0)
	return err
}

// MajorCompactAll forces a major compaction of every partition (tests and
// experiments trigger compaction manually). No cross-partition decision is
// involved, so majorMu is never held: each partition compacts under its own
// maint lock, fanned out through the pool like an eviction pass.
func (db *DB) MajorCompactAll() error {
	errs := make([]error, len(db.partitions))
	db.fanPartitions(len(db.partitions), func(i int) {
		p := db.partitions[i]
		errs[i] = db.maintain(p, func() error { return db.majorCompact(p, nil, nil) })
	})
	if err := firstError(errs); err != nil {
		return err
	}
	_, err := db.installManifest(0)
	return err
}
