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

	"pmblade/internal/pmem"
	"pmblade/internal/pmtable"
	"pmblade/internal/ssd"
	"pmblade/internal/sstable"
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
	// Device is the corpse's device class: "ssd" or "pm".
	Device string `json:"device"`
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
	dev    string                // "ssd" or "pm"
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
		if found && tier == TierPM && s.dev == "ssd" {
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

// rebuildQuarLocked republishes partition p's quarantined ranges from the
// registry. Callers hold quarMu.
//
//pmblade:holds quarMu
func (db *DB) rebuildQuarLocked(p *partition) {
	var srcs []quarSource
	for _, r := range db.quarRecs {
		if r.Partition != p.id {
			continue
		}
		s := quarSource{lo: r.Smallest, hi: r.Largest, dev: r.Device}
		switch r.Device {
		case "ssd":
			if t := db.quarSSD[ssd.FileID(r.ID)]; t != nil {
				s.may = t.MayContain
			}
		case "pm":
			if t := db.quarPM[pmem.Addr(r.ID)]; t != nil {
				s.may = t.MayContain
			}
		}
		srcs = append(srcs, s)
	}
	if len(srcs) == 0 {
		p.quar.Store(nil)
		return
	}
	p.quar.Store(&srcs)
}

// quarantineSST pulls SSTable t out of partition p's live set and registers
// the corpse. The unavailable range is published BEFORE the table leaves the
// live structures, so no reader can observe a window where the data is both
// unservable and unflagged. Cached blocks of the file are dropped — a block
// cached before the corruption was detected must not outlive its table's
// quarantine. Reports false when the table was already quarantined
// (concurrent detection). Callers hold no engine locks (the detach takes
// p.maint) and must follow a true return with a manifest install
// (persistQuarantine).
func (db *DB) quarantineSST(p *partition, t *sstable.Table, detail string) bool {
	if !db.registerSSTCorpse(p, t, detail) {
		return false
	}
	// The new state's stable half starts without a view and none is built
	// here: quarantine runs on the read path. The next scan builds one over
	// the surviving tables.
	p.maint.Lock()
	p.tree.Remove(t)
	db.installTables(p, nil, false)
	p.maint.Unlock()
	if db.cache != nil {
		db.cache.DropFile(t.File())
	}
	db.metrics.QuarantineIncidents.Add(1)
	db.metrics.QuarantinedNow.Add(1)
	return true
}

// registerSSTCorpse records t in the quarantine registry and republishes p's
// unavailable ranges. Reports false when the corpse was already registered
// (concurrent detection).
func (db *DB) registerSSTCorpse(p *partition, t *sstable.Table, detail string) bool {
	db.quarMu.Lock()
	defer db.quarMu.Unlock()
	if db.quarSSD == nil {
		db.quarSSD = make(map[ssd.FileID]*sstable.Table)
	}
	if _, dup := db.quarSSD[t.File()]; dup {
		return false
	}
	db.quarSSD[t.File()] = t
	db.quarRecs = append(db.quarRecs, QuarantineRecord{
		Device:    "ssd",
		ID:        uint64(t.File()),
		Partition: p.id,
		Detail:    detail,
		Smallest:  append([]byte(nil), t.Smallest()...),
		Largest:   append([]byte(nil), t.Largest()...),
	})
	db.rebuildQuarLocked(p)
	return true
}

// quarantinePM pulls PM table t out of partition p's level-0. The Remove
// result doubles as the liveness check: a table that already left the live
// set (retired by a concurrent compaction) is not quarantined, because its
// content was merged forward before the corruption landed. Reports whether
// the quarantine took effect.
func (db *DB) quarantinePM(p *partition, t *pmtable.Table, detail string) bool {
	if db.pmCorpseKnown(t.Addr()) {
		return false
	}
	// Remove gates registration: of any concurrent detections, exactly one
	// caller observes the table leaving the live set and registers it.
	p.maint.Lock()
	removed := p.l0.Remove(t)
	if removed {
		db.installTables(p, nil, false)
	}
	p.maint.Unlock()
	if !removed {
		return false
	}
	db.registerPMCorpse(p, t, detail)
	db.metrics.QuarantineIncidents.Add(1)
	db.metrics.QuarantinedNow.Add(1)
	return true
}

// pmCorpseKnown reports whether addr is already registered as a PM corpse.
func (db *DB) pmCorpseKnown(addr pmem.Addr) bool {
	db.quarMu.Lock()
	defer db.quarMu.Unlock()
	_, dup := db.quarPM[addr]
	return dup
}

// registerPMCorpse records t in the quarantine registry and republishes p's
// unavailable ranges.
func (db *DB) registerPMCorpse(p *partition, t *pmtable.Table, detail string) {
	db.quarMu.Lock()
	defer db.quarMu.Unlock()
	if db.quarPM == nil {
		db.quarPM = make(map[pmem.Addr]*pmtable.Table)
	}
	db.quarPM[t.Addr()] = t
	db.quarRecs = append(db.quarRecs, QuarantineRecord{
		Device:    "pm",
		ID:        uint64(t.Addr()),
		Partition: p.id,
		Detail:    detail,
		Smallest:  append([]byte(nil), t.Smallest()...),
		Largest:   append([]byte(nil), t.Largest()...),
	})
	db.rebuildQuarLocked(p)
}

// persistQuarantine makes the updated quarantine registry durable. Without a
// WAL there is no manifest and nothing survives a crash anyway, so it
// no-ops (installAfterMajor has the same gate). Callers hold no locks.
func (db *DB) persistQuarantine() error {
	return db.installAfterMajor()
}

// findLiveSST locates the live table of p backed by file id, or nil if the
// file no longer belongs to the live set.
func (db *DB) findLiveSST(p *partition, id ssd.FileID) *sstable.Table {
	for _, t := range p.state.Load().ssts() {
		if t.File() == id {
			return t
		}
	}
	return nil
}

// findLivePM locates the live PM table of p at addr, or nil.
func (db *DB) findLivePM(p *partition, addr pmem.Addr) *pmtable.Table {
	for _, t := range p.state.Load().pmTables() {
		if t.Addr() == addr {
			return t
		}
	}
	return nil
}

// healCorruption is the read path's self-healing hook: when err identifies a
// corrupt table, the table is quarantined (with its manifest install) and
// healCorruption reports that the caller should retry the read once against
// the now-clean live set. Any other error reports false. Callers hold no
// engine locks.
func (db *DB) healCorruption(p *partition, err error) bool {
	var sce *sstable.CorruptionError
	if errors.As(err, &sce) {
		if t := db.findLiveSST(p, sce.File); t != nil {
			if db.quarantineSST(p, t, sce.Detail) {
				if merr := db.persistQuarantine(); merr != nil {
					db.setBgErr(merr)
				}
			}
		}
		// Retry even when the table was already quarantined by a concurrent
		// detection: the live set no longer contains it either way.
		return true
	}
	var pce *pmtable.CorruptionError
	if errors.As(err, &pce) {
		if t := db.findLivePM(p, pce.Addr); t != nil {
			if db.quarantinePM(p, t, pce.Detail) {
				if merr := db.persistQuarantine(); merr != nil {
					db.setBgErr(merr)
				}
			}
		}
		return true
	}
	return false
}

// QuarantineRecords snapshots the quarantine registry (observability, tests,
// and the scrub soak's oracle).
func (db *DB) QuarantineRecords() []QuarantineRecord {
	db.quarMu.Lock()
	defer db.quarMu.Unlock()
	return append([]QuarantineRecord(nil), db.quarRecs...)
}
