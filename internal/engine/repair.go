// Self-healing repair (DESIGN.md §5.8): RepairQuarantined rebuilds every
// partition that holds quarantined corpses. Salvage iterators walk each
// openable SSD corpse and yield only the entries whose block CRCs still
// verify; those entries join the partition's major compaction — every live
// source below the memtables — so sequence-number dedup keeps exactly the
// newest surviving version of each key regardless of which table held it. PM
// corpses contribute nothing — their single whole-image checksum cannot
// vouch for any sub-range once it fails. The rebuilt run installs through
// the ordinary compaction path and the corpses retire through the deferred
// obsolete queues, by raw device ID (idempotent), so a crash at any point
// leaves either the quarantine or the repaired state — never a corrupt
// table back in the live set.

package engine

import (
	"fmt"

	"pmblade/internal/pmem"
	"pmblade/internal/ssd"
	"pmblade/internal/sstable"
)

// corpseKey identifies a quarantine record for targeted cleanup.
type corpseKey struct {
	device string
	id     uint64
}

// RepairQuarantined rebuilds every partition holding quarantined tables and
// releases their corpses. Keys whose only surviving copy sat in a corrupt
// block (or in a PM corpse) come back as not-found instead of ErrUnavailable
// — the loss is acknowledged, not hidden. In RocksDB-emulation mode the
// record is dropped without a rebuild (no salvage; the leveled hierarchy is
// a baseline, not a durability target). Callers hold no engine locks.
func (db *DB) RepairQuarantined() error {
	if db.closed.Load() {
		return ErrClosed
	}
	db.repairMu.Lock()
	defer db.repairMu.Unlock()

	db.quarMu.Lock()
	recs := append([]QuarantineRecord(nil), db.quarRecs...)
	corpses := make(map[uint64]*sstable.Table)
	for id, t := range db.quarSSD {
		if t != nil {
			corpses[uint64(id)] = t
		}
	}
	db.quarMu.Unlock()
	if len(recs) == 0 {
		return nil
	}

	byPart := make(map[int][]QuarantineRecord)
	for _, r := range recs {
		byPart[r.Partition] = append(byPart[r.Partition], r)
	}
	for _, p := range db.partitions {
		prs := byPart[p.id]
		if len(prs) == 0 {
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
			for _, r := range prs {
				if t := corpses[r.ID]; r.Device == "ssd" && t != nil {
					salvage = append(salvage, t.NewSalvageIterator())
				}
			}
			if db.cfg.RocksDB || len(salvage) == 0 {
				return nil
			}
			return db.majorCompact(p, salvage)
		})
		if err != nil {
			return fmt.Errorf("engine: repair partition %d: %w", p.id, err)
		}
		db.finishRepair(p, prs)
	}
	db.metrics.RepairPasses.Add(1)
	// One manifest install drops the quarantine records from the durable
	// root and frees the retired corpses.
	return db.installAfterMajor()
}

// finishRepair removes the repaired records from the quarantine registry and
// queues their corpses for retirement. Only the snapshot's records are
// dropped — a quarantine that landed concurrently (background scrub) stays
// in place for the next repair pass.
func (db *DB) finishRepair(p *partition, prs []QuarantineRecord) {
	if db.cfg.DisableWAL {
		// No manifest, no deferral: nothing durable references the corpses.
		for _, r := range prs {
			switch r.Device {
			case "ssd":
				db.ssd.Delete(ssd.FileID(r.ID))
			case "pm":
				if db.pm != nil {
					db.pm.Release(pmem.Addr(r.ID))
				}
			}
		}
	} else {
		db.obsoleteMu.Lock()
		for _, r := range prs {
			switch r.Device {
			case "ssd":
				db.obsoleteRawSSD = append(db.obsoleteRawSSD, ssd.FileID(r.ID))
			case "pm":
				db.obsoleteRawPM = append(db.obsoleteRawPM, pmem.Addr(r.ID))
			}
		}
		db.obsoleteMu.Unlock()
	}

	dead := make(map[corpseKey]bool, len(prs))
	for _, r := range prs {
		dead[corpseKey{r.Device, r.ID}] = true
	}
	db.quarMu.Lock()
	keep := db.quarRecs[:0]
	for _, r := range db.quarRecs {
		if dead[corpseKey{r.Device, r.ID}] {
			switch r.Device {
			case "ssd":
				delete(db.quarSSD, ssd.FileID(r.ID))
			case "pm":
				delete(db.quarPM, pmem.Addr(r.ID))
			}
			continue
		}
		keep = append(keep, r)
	}
	db.quarRecs = keep
	db.rebuildQuarLocked(p)
	db.quarMu.Unlock()
	db.metrics.QuarantinedNow.Add(-int64(len(prs)))
	db.metrics.RepairTablesRetired.Add(int64(len(prs)))
}
