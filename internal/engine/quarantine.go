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

// quarSource is one quarantined table's read-path footprint: its key range
// plus, when the corpse is still openable, its MayContain filter for
// fence+Bloom precision. dev orders the source against serving tiers: a
// result from a strictly newer tier cannot be shadowed by the corpse.
type quarSource struct {
	lo, hi []byte
	dev    device.Class
	may    func(key []byte) bool // nil: fence check only
}

// quarShadowed reports whether a read outcome for key may be wrong because a
// quarantined source of p could have held a newer version. A miss inside any
// matching source is shadowed (the key may exist unreadably); a hit is
// shadowed unless it came from a tier strictly newer than every matching
// source — the memtable always is, and the PM level-0 is newer than any SSD
// table. Fast path: one atomic load, nil when nothing is quarantined.
func (p *partition) quarShadowed(key []byte, found bool, tier Tier) bool {
	srcs := p.quar.Load()
	if srcs == nil {
		return false
	}
	if found && tier == TierMemtable {
		return false
	}
	for _, s := range *srcs {
		if s.lo != nil && bytes.Compare(key, s.lo) < 0 {
			continue
		}
		if s.hi != nil && bytes.Compare(key, s.hi) > 0 {
			continue
		}
		if s.may != nil && !s.may(key) {
			continue
		}
		if found && tier == TierPM && s.dev == device.SSD {
			// Data only moves PM level-0 -> SSD, so a PM hit is strictly
			// newer than anything a quarantined SSD table ever held.
			continue
		}
		return true
	}
	return false
}

// quarOverlaps reports whether any quarantined source of p intersects the
// scan range [start, end). Scans are conservative: Bloom filters cannot
// prune a range, so any overlap makes the scan unavailable.
func (p *partition) quarOverlaps(start, end []byte) bool {
	srcs := p.quar.Load()
	if srcs == nil {
		return false
	}
	for _, s := range *srcs {
		if end != nil && s.lo != nil && bytes.Compare(s.lo, end) >= 0 {
			continue
		}
		if start != nil && s.hi != nil && bytes.Compare(s.hi, start) < 0 {
			continue
		}
		return true
	}
	return false
}

// corpse is one entry of the quarantine registry: the durable record and, when
// there is one, the handle repair salvages through. t is nil for a corpse a
// restart could not reopen (or, on PM, never does: the whole-image checksum
// that failed at quarantine time cannot pass now).
type corpse struct {
	QuarantineRecord
	t table
}

func (c corpse) id() tableID { return tableID{c.Device, c.ID} }

// rebuildQuarLocked republishes partition p's quarantined ranges from the
// registry. Callers hold quarMu.
//
//pmblade:holds quarMu
func (db *DB) rebuildQuarLocked(p *partition) {
	var srcs []quarSource
	for _, c := range db.corpses {
		if c.Partition != p.id {
			continue
		}
		s := quarSource{lo: c.Smallest, hi: c.Largest, dev: c.Device}
		if c.t != nil {
			s.may = c.t.MayContain
		}
		srcs = append(srcs, s)
	}
	if len(srcs) == 0 {
		p.quar.Store(nil)
		return
	}
	p.quar.Store(&srcs)
}

// quarantine pulls the table id names out of partition p's live set and
// registers it as a corpse, all under p.maint and in this order: is it still
// live — one that a compaction retired had its content merged forward before
// the rot landed, and of concurrent detections exactly one finds it here; then
// the unavailable range is published; only then does the table leave the
// published state. A reader loads the state first and the ranges second
// (quarShadowed, the cursor's guard), so whichever state it holds it either
// still reads the table or already sees the range: there is no window in
// which the data is both unservable and unflagged. No view is built for the
// new state — quarantine runs on the read path, and the next scan builds one
// over the surviving tables. Reports whether the quarantine took effect;
// callers hold no engine locks and follow a true return with installManifest.
func (db *DB) quarantine(p *partition, id tableID, detail string) bool {
	p.maint.Lock()
	defer p.maint.Unlock()
	t := p.state.Load().table(id)
	if t == nil {
		return false
	}
	db.quarMu.Lock()
	db.corpses = append(db.corpses, corpse{QuarantineRecord{
		Device:    id.dev,
		ID:        id.id,
		Partition: p.id,
		Detail:    detail,
		Smallest:  append([]byte(nil), t.Smallest()...),
		Largest:   append([]byte(nil), t.Largest()...),
	}, t})
	db.rebuildQuarLocked(p)
	db.quarMu.Unlock()
	t.detach(p)
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

// QuarantineRecords snapshots the quarantine registry (observability, tests,
// and the scrub soak's oracle).
func (db *DB) QuarantineRecords() []QuarantineRecord {
	db.quarMu.Lock()
	defer db.quarMu.Unlock()
	out := make([]QuarantineRecord, len(db.corpses))
	for i, c := range db.corpses {
		out[i] = c.QuarantineRecord
	}
	return out
}
