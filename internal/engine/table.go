// Table lifecycle (DESIGN.md §5.8): everything that happens to a table after
// it is built — scrub, quarantine, restart, repair, retirement, the manifest —
// knows it by a tableID and through the table interface, never by its device.
// What differs between PM and SSD tables is on the two adapters below; beside
// them only freeByID and Recover's reopening of SSD corpses look at the class.
// The read path does not come through here: it walks a readState's concrete
// slices.

package engine

import (
	"errors"

	"pmblade/internal/device"
	"pmblade/internal/pmem"
	"pmblade/internal/pmtable"
	"pmblade/internal/ssd"
	"pmblade/internal/sstable"
)

// tableID names one at-rest table: the class of device that holds it and its
// pmem.Addr or ssd.FileID there.
type tableID struct {
	dev device.Class
	id  uint64
}

// table is what the lifecycle code needs of a table.
type table interface {
	id() tableID
	Smallest() []byte
	Largest() []byte
	MayContain(key []byte) bool
	// rotLimit is the length of the image prefix whose checksums verify
	// re-checks: rot below it is guaranteed to be found.
	rotLimit() int64
	// verify re-reads the at-rest image from the device and returns one
	// located corruption per region that fails its checksum; budget is told
	// every byte read. The error is a device failure that kept it from looking.
	verify(budget func(n int64)) ([]*device.CorruptionError, error)
	// salvage iterates what the table's checksums still vouch for once it is
	// a corpse, nil when that is nothing.
	salvage() *sstable.Iterator
	// detach takes the table out of p's maintenance-side container and drops
	// what DRAM caches of it; the table and its storage stay. Callers hold
	// p.maint and publish with installTables.
	detach(p *partition)
}

// pmTable is a PM level-0 table. One checksum covers the whole image, so a
// rotted one is one region, and nothing of it can be salvaged.
type pmTable struct{ *pmtable.Table }

func (t pmTable) id() tableID                { return tableID{device.PM, uint64(t.Addr())} }
func (t pmTable) rotLimit() int64            { return t.SizeBytes() }
func (t pmTable) salvage() *sstable.Iterator { return nil }
func (t pmTable) detach(p *partition)        { p.l0.Remove(t.Table) }

func (t pmTable) verify(budget func(n int64)) ([]*device.CorruptionError, error) {
	err := t.Verify()
	budget(t.SizeBytes())
	// Any other failure is a region that left the live set during the walk:
	// its content was merged forward before any rot.
	var ce *device.CorruptionError
	if errors.As(err, &ce) {
		return []*device.CorruptionError{ce}, nil
	}
	return nil, nil
}

// ssdTable is an SSD table: level-0 or of a run. Every data block has a CRC
// (the metadata tail is checked structurally at Open), so rot is located to
// the block, and the blocks that still verify can be salvaged. The file lives
// until the last read state listing it is released.
type ssdTable struct{ *sstable.Table }

func (t ssdTable) id() tableID                { return tableID{device.SSD, uint64(t.File())} }
func (t ssdTable) rotLimit() int64            { return t.DataBytes() }
func (t ssdTable) salvage() *sstable.Iterator { return t.NewSalvageIterator() }

func (t ssdTable) verify(budget func(n int64)) ([]*device.CorruptionError, error) {
	return t.VerifyBlocks(device.CauseScrub, budget)
}

// A block cached before the rot was found must not outlive the quarantine.
func (t ssdTable) detach(p *partition) {
	p.tree.Remove(t.Table)
	t.DropCached()
}

// tables lists every table of s, the SSD tier first.
func (s *readState) tables() []table {
	var out []table
	for _, t := range s.ssts() {
		out = append(out, ssdTable{t})
	}
	for _, t := range s.pmTables() {
		out = append(out, pmTable{t})
	}
	return out
}

// table returns the table of s that id names, nil when it is not (or no
// longer) one of them.
func (s *readState) table(id tableID) table {
	for _, t := range s.tables() {
		if t.id() == id {
			return t
		}
	}
	return nil
}

// freeByID gives back the storage id names, through the device: quarantined
// corpses go this way because one recovered from a manifest may have no
// handle left to go through. Both devices ignore an id they no longer hold.
func (db *DB) freeByID(id tableID) {
	switch id.dev {
	case device.PM:
		if db.pm != nil {
			db.pm.Release(pmem.Addr(id.id))
		}
	case device.SSD:
		db.ssd.Delete(ssd.FileID(id.id))
	}
}

// retire disposes storage that left the live set — free gives it back. With a
// WAL it waits in the retirement queue: the durable manifest may still name
// the table, and recovery from a crash before the next install must be able to
// reopen everything that manifest names; installManifest drains the queue.
// Without a WAL nothing survives a crash, so free runs at once — which the
// experiments' PM accounting relies on.
func (db *DB) retire(free func()) {
	if db.cfg.DisableWAL {
		free()
		return
	}
	db.obsoleteMu.Lock()
	db.obsolete = append(db.obsolete, free)
	db.obsoleteMu.Unlock()
}
