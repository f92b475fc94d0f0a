// Background integrity scrub (DESIGN.md §5.8): an incremental, rate-limited
// walk over every live PM table, SSD table, and the active WAL, re-reading
// at-rest bytes and re-checking their checksums so latent bit rot is found
// while an intact copy may still exist — not at the moment a read or a
// compaction trips over it. Scrub reads bypass the block cache (verification
// must touch the device, and a scrub pass must not evict the working set)
// and run at the lowest I/O priority through the scheduler's ScrubGate.

package engine

import (
	"fmt"
	"time"

	"pmblade/internal/device"
	"pmblade/internal/wal"
)

// Incident is one corruption detection of a scrub pass.
type Incident struct {
	// Device is SSD, PM or WAL.
	Device device.Class
	// ID is the ssd.FileID or pmem.Addr of the corrupt object: for a WAL
	// incident, the log file's, or the log tail's address.
	ID uint64
	// Offset/Length locate the corrupt region within the object: the failing
	// block for SSD tables, the whole image for PM tables, the first corrupt
	// record (or, in the tail, header) for a WAL.
	Offset int64
	Length int64
	// Partition is the owning partition, -1 for WAL incidents.
	Partition int
	Detail    string
}

// scrubBytesPerSec rate-limits scrub device reads.
const scrubBytesPerSec = 8 << 20

// scrubPacer rate-limits scrub device traffic to scrubBytesPerSec, sleeping
// once the pass runs ahead of its byte budget.
type scrubPacer struct {
	start time.Time
	bytes int64
}

func (sp *scrubPacer) charge(n int64) {
	sp.bytes += n
	ahead := time.Duration(float64(sp.bytes)/scrubBytesPerSec*float64(time.Second)) - time.Since(sp.start)
	if ahead > time.Millisecond {
		time.Sleep(ahead)
	}
}

// ScrubOnce performs one synchronous scrub pass over every live table and
// the active WAL, quarantining each table whose checksums fail and returning
// the detected incidents. Corruption is not an error — the error return is
// reserved for device I/O failures that prevented verification. Callers hold
// no engine locks.
func (db *DB) ScrubOnce() ([]Incident, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	pacer := &scrubPacer{start: time.Now()}
	budget := func(n int64) {
		db.metrics.ScrubBytes.Add(n)
		pacer.charge(n)
	}
	var incidents []Incident
	quarantined := false
	for _, p := range db.partitions {
		// One state per partition: a table compacted away mid-pass stays
		// readable (and its file alive) until the walk lets go of it — and is
		// not quarantined, its content having been merged forward.
		s := p.acquire()
		for _, t := range s.tables() {
			db.pool.ScrubGate()
			id := t.id()
			corrupt, err := t.verify(budget)
			db.metrics.ScrubTables.Add(1)
			if err != nil {
				s.release()
				return incidents, fmt.Errorf("engine: scrub %s table %d: %w", id.dev, id.id, err)
			}
			if len(corrupt) == 0 {
				continue
			}
			for _, ce := range corrupt {
				incidents = append(incidents, Incident{
					Device: ce.Class, ID: ce.ID, Offset: ce.Off, Length: ce.Len,
					Partition: p.id, Detail: ce.Detail,
				})
			}
			db.metrics.ScrubCorruptions.Add(int64(len(corrupt)))
			if db.quarantine(p, id, corrupt[0].Detail) {
				quarantined = true
			}
		}
		s.release()
	}

	// WAL: record-CRC walk over the active log, its file and its tail. The WAL
	// is an early warning, not a quarantine target — its content is re-logged
	// or flushed at the next checkpoint, and recovery already stops at the
	// corrupt record.
	db.walMu.Lock()
	w := db.wal
	db.walMu.Unlock()
	if w != nil {
		db.pool.ScrubGate()
		off, err := wal.Verify(db.ssd, w.File())
		if err == nil && off >= 0 {
			incidents = append(incidents, Incident{
				Device: device.WAL, ID: uint64(w.File()), Offset: off,
				Partition: -1, Detail: "record checksum",
			})
			db.metrics.ScrubCorruptions.Add(1)
		}
		// The tail is the live writer's: a checkpoint may have handed it on
		// since w was read, and walMu keeps it from doing so mid-walk.
		db.walMu.Lock()
		off, err = db.wal.VerifyTail()
		db.walMu.Unlock()
		if err == nil && off >= 0 {
			incidents = append(incidents, Incident{
				Device: device.WAL, ID: uint64(db.walTail.Addr()), Offset: off,
				Partition: -1, Detail: "log tail checksum",
			})
			db.metrics.ScrubCorruptions.Add(1)
		}
	}

	if quarantined {
		if _, err := db.installManifest(0); err != nil {
			return incidents, err
		}
	}
	db.metrics.ScrubPasses.Add(1)
	return incidents, nil
}

// startScrub launches the background scrub loop when ScrubInterval is set.
// The loop sleeps the configured interval between passes and exits on Close.
func (db *DB) startScrub() {
	if db.cfg.ScrubInterval <= 0 {
		return
	}
	db.scrubStop = make(chan struct{})
	db.scrubDone = make(chan struct{})
	go func() {
		defer close(db.scrubDone)
		for {
			select {
			case <-db.scrubStop:
				return
			case <-time.After(db.cfg.ScrubInterval):
			}
			if db.closed.Load() {
				return
			}
			if _, err := db.ScrubOnce(); err != nil && err != ErrClosed {
				db.setBgErr(err)
				return
			}
		}
	}()
}

// stopScrub joins the background scrub loop; idempotent, nil-safe.
func (db *DB) stopScrub() {
	if db.scrubStop == nil {
		return
	}
	select {
	case <-db.scrubStop:
	default:
		close(db.scrubStop)
	}
	<-db.scrubDone
}

// RotTarget describes one live at-rest image an integrity test may corrupt:
// rot at any offset in [0, Limit) is guaranteed detectable by ScrubOnce.
// For SSD tables that is the CRC-covered data-block prefix (the metadata
// tail carries structural checks only); PM images are checksummed whole.
type RotTarget struct {
	Device    device.Class // SSD or PM
	ID        uint64
	Limit     int64
	Partition int // owning partition index
}

// RotTargets enumerates the live tables in deterministic (partition, tier)
// order — the bit-rot fault-injection surface of the scrub soak.
func (db *DB) RotTargets() []RotTarget {
	var out []RotTarget
	for pi, p := range db.partitions {
		for _, t := range p.state.Load().tables() {
			if id, n := t.id(), t.rotLimit(); n > 0 {
				out = append(out, RotTarget{Device: id.dev, ID: id.id, Limit: n, Partition: pi})
			}
		}
	}
	return out
}
