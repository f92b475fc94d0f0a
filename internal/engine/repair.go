// Self-healing repair (DESIGN.md §5.8): RepairQuarantined rebuilds every
// partition that holds quarantined corpses. Salvage iterators walk each
// openable SSD corpse and yield only the entries whose block CRCs still
// verify; those entries join the partition's major compaction — every live
// source below the memtables, in any layout of the SSD tier — so
// sequence-number dedup keeps exactly the newest surviving version of each
// key regardless of which table held it. PM corpses contribute nothing —
// their single whole-image checksum cannot vouch for any sub-range once it
// fails. The corpses leave the partition's state in the same install that
// adds the rebuilt tables, and retire through the retirement queue, by raw
// device ID (idempotent), so a crash at any point leaves either the
// quarantine or the repaired state — never a corrupt table back in the live
// set.

package engine

import (
	"fmt"
	"slices"

	"pmblade/internal/sstable"
)

// RepairQuarantined rebuilds every partition holding quarantined tables and
// releases their corpses. A key whose newest surviving copy sat in a corrupt
// block (or in a PM corpse) reverts to the next older version a live table
// holds, or comes back as not-found instead of ErrUnavailable — the loss is
// acknowledged, not hidden. Callers hold no engine locks.
func (db *DB) RepairQuarantined() error {
	if db.closed.Load() {
		return ErrClosed
	}
	found := false
	for _, p := range db.partitions {
		corpses := p.state.Load().corpses
		if len(corpses) == 0 {
			continue
		}
		found = true
		// A major compaction with the corpses as extra sources. It is judged
		// like any other: versions an open snapshot still reads survive it,
		// its tombstones stay because p still holds the corpses until its
		// install — salvage sources are partial, and keeping a deletion
		// marker is always safe — and a live table it finds rotted is
		// quarantined (for the next repair pass) and the job run again, on
		// fresh salvage iterators so that a skipped block is counted once.
		if err := db.maintain(p, func() error { return db.repair(p, corpses) }); err != nil {
			return fmt.Errorf("engine: repair partition %d: %w", p.id, err)
		}
	}
	if !found {
		return nil
	}
	db.metrics.RepairPasses.Add(1)
	// One manifest install drops the quarantine records from the durable
	// root and frees the retired corpses.
	_, err := db.installManifest(0)
	return err
}

// repair rebuilds p from its live tables and what the corpses of snap still
// held by p vouch for, and releases those corpses. Only they go: a corpse
// quarantined since the snapshot stays for the next pass, and one a
// concurrent pass already released is not released twice. Without a salvage
// source nothing is rebuilt; the corpses still leave in one install. Callers
// hold p.maint.
func (db *DB) repair(p *partition, snap []corpse) error {
	mine := slices.DeleteFunc(slices.Clone(snap), func(c corpse) bool { return !hasCorpse(p.corpses, c.id()) })
	if len(mine) == 0 {
		return nil
	}
	var salvage []*sstable.Iterator
	for _, c := range mine {
		if c.t == nil {
			continue
		}
		if it := c.t.salvage(); it != nil {
			salvage = append(salvage, it)
		}
	}
	if len(salvage) > 0 {
		return db.majorCompact(p, salvage, mine)
	}
	p.dropCorpses(mine)
	db.installTables(p, nil, false)
	db.retireCorpses(mine)
	return nil
}

// dropCorpses takes cs out of p's corpses, into a new slice: a published state
// may share the old one. Callers hold p.maint, publish with installTables and
// then retire cs.
func (p *partition) dropCorpses(cs []corpse) {
	p.corpses = slices.DeleteFunc(slices.Clone(p.corpses), func(c corpse) bool { return hasCorpse(cs, c.id()) })
}

// retireCorpses hands the storage of corpses that left the state to the
// retirement queue.
func (db *DB) retireCorpses(cs []corpse) {
	for _, c := range cs {
		id := c.id()
		db.retire(func() { db.freeByID(id) })
	}
	db.metrics.QuarantinedNow.Add(-int64(len(cs)))
	db.metrics.RepairTablesRetired.Add(int64(len(cs)))
}

// hasCorpse reports whether one of cs is the table id names.
func hasCorpse(cs []corpse, id tableID) bool {
	return slices.ContainsFunc(cs, func(c corpse) bool { return c.id() == id })
}
