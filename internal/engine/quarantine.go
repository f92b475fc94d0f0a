// Latent-corruption quarantine (DESIGN.md §5.8): when a checksum failure is
// detected — by the background scrubber or inline on the read path — the
// corrupt table is pulled out of its partition's live set, recorded in the
// manifest so the quarantine survives restart, and held as a corpse until
// RepairQuarantined salvages whatever its remaining checksums still vouch
// for. The read path routes around quarantined sources: a miss that falls
// inside a quarantined table's key range (and passes its Bloom filter, when
// the corpse is still openable) fails with ErrUnavailable instead of lying
// with a silent not-found.

package engine

import (
	"bytes"
	"errors"
	"slices"

	"pmblade/internal/device"
)

// ErrUnavailable is returned by reads whose key (or range) may only be held
// by a quarantined table: the data is not provably absent, it is unreadable
// until repair. Callers distinguish it from a clean not-found.
var ErrUnavailable = errors.New("engine: key range unavailable: sole candidate source is quarantined")

// QuarantineRecord is the durable description of one quarantined table. It
// rides in the manifest so a restart re-establishes the quarantine instead
// of either resurrecting a corrupt table into the live set or silently
// forgetting that a key range is unreadable.
type QuarantineRecord struct {
	// Device is the corpse's device class: SSD or PM.
	Device device.Class `json:"device"`
	// ID is the ssd.FileID or pmem.Addr of the corpse.
	ID uint64 `json:"id"`
	// Partition is the owning partition's index.
	Partition int `json:"partition"`
	// Detail describes the first detection (file/offset/cause).
	Detail string `json:"detail"`
	// Smallest/Largest are the corpse's user-key fence posts, captured at
	// quarantine time so the unavailable range survives even when the corpse
	// cannot be reopened after a restart.
	Smallest []byte `json:"smallest"`
	Largest  []byte `json:"largest"`
}

// corpse is one quarantined table: the durable record and, when there is one,
// the handle repair salvages through and reads filter with. t is nil for a
// corpse a restart could not reopen (or, on PM, never does: the whole-image
// checksum that failed at quarantine time cannot pass now).
type corpse struct {
	QuarantineRecord
	t table
}

func (c corpse) id() tableID { return tableID{c.Device, c.ID} }

// quarShadowed reports whether a read outcome for key may be wrong because a
// corpse of s could have held a newer version. A miss inside any corpse that
// may contain key — its fences, and its Bloom filter when it has a handle — is
// shadowed (the key may exist unreadably); a hit is shadowed unless it came
// from a tier strictly newer than every such corpse — the memtable always is,
// and the PM level-0 is newer than any SSD table.
func (s *readState) quarShadowed(key []byte, found bool, tier Tier) bool {
	if len(s.corpses) == 0 || (found && tier == TierMemtable) {
		return false
	}
	for _, c := range s.corpses {
		if c.Smallest != nil && bytes.Compare(key, c.Smallest) < 0 {
			continue
		}
		if c.Largest != nil && bytes.Compare(key, c.Largest) > 0 {
			continue
		}
		if c.t != nil && !c.t.MayContain(key) {
			continue
		}
		if found && tier == TierPM && c.Device == device.SSD {
			// Data only moves PM level-0 -> SSD, so a PM hit is strictly
			// newer than anything a quarantined SSD table ever held.
			continue
		}
		return true
	}
	return false
}

// quarOverlaps reports whether any corpse of s intersects the scan range
// [start, end). Scans are conservative: Bloom filters cannot prune a range,
// so any overlap makes the scan unavailable.
func (s *readState) quarOverlaps(start, end []byte) bool {
	for _, c := range s.corpses {
		if end != nil && c.Smallest != nil && bytes.Compare(c.Smallest, end) >= 0 {
			continue
		}
		if start != nil && c.Largest != nil && bytes.Compare(c.Largest, start) < 0 {
			continue
		}
		return true
	}
	return false
}

// quarantine pulls the table id names out of partition p's live set and keeps
// it as a corpse, under p.maint. A table that is no longer live is left alone:
// one that a compaction retired had its content merged forward before the rot
// landed, and of concurrent detections exactly one finds it here. One install
// publishes both edits, so a reader's state either still lists the table or
// already holds its corpse. No view is built for the new state — quarantine
// runs on the read path, and the next scan builds one over the surviving
// tables. Reports whether the quarantine took effect; callers hold no engine
// locks and follow a true return with installManifest.
func (db *DB) quarantine(p *partition, id tableID, detail string) bool {
	p.maint.Lock()
	defer p.maint.Unlock()
	t := p.state.Load().table(id)
	if t == nil {
		return false
	}
	t.detach(p)
	p.corpses = append(slices.Clip(p.corpses), corpse{QuarantineRecord{
		Device:    id.dev,
		ID:        id.id,
		Partition: p.id,
		Detail:    detail,
		Smallest:  append([]byte(nil), t.Smallest()...),
		Largest:   append([]byte(nil), t.Largest()...),
	}, t})
	db.installTables(p, nil, false)
	db.metrics.QuarantineIncidents.Add(1)
	db.metrics.QuarantinedNow.Add(1)
	return true
}

// healCorruption is the read path's self-healing hook: when err locates a
// corrupt table, the table is quarantined (with its manifest install) and
// healCorruption reports that the caller should retry the read once against
// the now-clean live set — also when a concurrent detection got there first:
// the live set no longer contains the table either way. Any other error
// reports false. Callers hold no engine locks.
func (db *DB) healCorruption(p *partition, err error) bool {
	var ce *device.CorruptionError
	if !errors.As(err, &ce) {
		return false
	}
	if db.quarantine(p, tableID{ce.Class, ce.ID}, ce.Detail) {
		if _, merr := db.installManifest(0); merr != nil {
			db.setBgErr(merr)
		}
	}
	return true
}

// QuarantineRecords lists the quarantined tables, partition by partition
// (observability, tests, and the scrub soak's oracle).
func (db *DB) QuarantineRecords() []QuarantineRecord {
	var out []QuarantineRecord
	for _, p := range db.partitions {
		for _, c := range p.state.Load().corpses {
			out = append(out, c.QuarantineRecord)
		}
	}
	return out
}
