// Self-healing repair (DESIGN.md §5.8): RepairQuarantined rebuilds every
// partition that holds quarantined corpses. Salvage iterators walk each
// openable SSD corpse and yield only the entries whose block CRCs still
// verify; those entries join the partition's major compaction — every live
// source below the memtables, in any layout of the SSD tier — so
// sequence-number dedup keeps exactly the newest surviving version of each
// key regardless of which table held it. PM corpses contribute nothing —
// their single whole-image checksum cannot vouch for any sub-range once it
// fails. The rebuilt bottom level installs through the ordinary compaction
// path and the corpses retire through the retirement queue, by raw device ID
// (idempotent), so a crash at any point leaves either the quarantine or the
// repaired state — never a corrupt table back in the live set.

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
	db.repairMu.Lock()
	defer db.repairMu.Unlock()

	db.quarMu.Lock()
	corpses := slices.Clone(db.corpses)
	db.quarMu.Unlock()
	if len(corpses) == 0 {
		return nil
	}
	for _, p := range db.partitions {
		mine := slices.DeleteFunc(slices.Clone(corpses), func(c corpse) bool { return c.Partition != p.id })
		if len(mine) == 0 {
			continue
		}
		// A major compaction with the corpses as extra sources. It is judged
		// like any other: versions an open snapshot still reads survive it,
		// its tombstones stay because p still has its quarantine records —
		// salvage sources are partial, and keeping a deletion marker is
		// always safe — and a live table it finds rotted is quarantined (for
		// the next repair pass) and the job run again, on fresh salvage
		// iterators so that a skipped block is counted once.
		err := db.maintain(p, func() error {
			var salvage []*sstable.Iterator
			for _, c := range mine {
				if c.t == nil {
					continue
				}
				if it := c.t.salvage(); it != nil {
					salvage = append(salvage, it)
				}
			}
			if len(salvage) == 0 {
				return nil
			}
			return db.majorCompact(p, salvage)
		})
		if err != nil {
			return fmt.Errorf("engine: repair partition %d: %w", p.id, err)
		}
		db.finishRepair(p, mine)
	}
	db.metrics.RepairPasses.Add(1)
	// One manifest install drops the quarantine records from the durable
	// root and frees the retired corpses.
	_, err := db.installManifest(0)
	return err
}

// finishRepair removes the repaired corpses of p from the quarantine registry
// and retires them. Only the snapshot's corpses are dropped — a quarantine
// that landed concurrently (background scrub) stays in place for the next
// repair pass.
func (db *DB) finishRepair(p *partition, repaired []corpse) {
	dead := make(map[tableID]bool, len(repaired))
	for _, c := range repaired {
		id := c.id()
		dead[id] = true
		db.retire(func() { db.freeByID(id) })
	}
	db.quarMu.Lock()
	db.corpses = slices.DeleteFunc(db.corpses, func(c corpse) bool { return dead[c.id()] })
	db.rebuildQuarLocked(p)
	db.quarMu.Unlock()
	db.metrics.QuarantinedNow.Add(-int64(len(repaired)))
	db.metrics.RepairTablesRetired.Add(int64(len(repaired)))
}
