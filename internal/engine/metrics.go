package engine

import (
	"sync/atomic"

	"pmblade/internal/device"
	"pmblade/internal/histogram"
	"pmblade/internal/sstable"
)

// Tier identifies where a read was served from; Figure 8(b) reports the
// fraction served by PM.
type Tier int

// Read-path tiers, in lookup order.
const (
	TierMiss Tier = iota
	TierMemtable
	TierPM
	TierSSD
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierMemtable:
		return "memtable"
	case TierPM:
		return "pm"
	case TierSSD:
		return "ssd"
	default:
		return "miss"
	}
}

// Metrics aggregates engine-level observations used by the experiments.
type Metrics struct {
	// ReadLatency / WriteLatency / ScanLatency are end-to-end operation
	// histograms.
	ReadLatency  *histogram.Histogram
	WriteLatency *histogram.Histogram
	ScanLatency  *histogram.Histogram

	readsByTier [4]atomic.Int64

	// FlushCount / InternalCount / MajorCount count compactions by kind.
	FlushCount    atomic.Int64
	InternalCount atomic.Int64
	MajorCount    atomic.Int64
	// WriteStallNanos accrues time writers spent blocked on compaction debt
	// (backpressure stalls and PM-exhaustion evictions).
	WriteStallNanos atomic.Int64
	// L0TablesProbed accrues the PM tables touched per read (read
	// amplification, Figure 7a).
	L0TablesProbed atomic.Int64

	// EvictionCount / EvictionWallNanos describe cross-partition eviction
	// passes (the Eq. 3 cost-based pass or the threshold global wipe):
	// passes completed and their total wall time from the knapsack decision
	// through the final manifest install. Joined triggers (evictOnce) do not
	// count as extra passes.
	EvictionCount     atomic.Int64
	EvictionWallNanos atomic.Int64
	// VictimStallNanos accrues, per victim partition, the time from the
	// eviction snapshot to that victim's installed result (maint-lock wait
	// plus compaction I/O) — the per-partition write-stall exposure of an
	// eviction pass. Preserved partitions contribute nothing.
	VictimStallNanos atomic.Int64
	// EvictVictimsInFlight is a gauge of victim partitions currently being
	// compacted by an eviction pass; MajorCompactAll's fan-out is not
	// counted.
	EvictVictimsInFlight atomic.Int64

	// WALCommitCount / WALCommitBatches / WALCommitEntries describe group
	// commit: WALCommitBatches/WALCommitCount is the mean writers coalesced
	// per WAL sync, WALCommitEntries the total entries logged.
	WALCommitCount   atomic.Int64
	WALCommitBatches atomic.Int64
	WALCommitEntries atomic.Int64

	// FilterHits / FilterSkips count level-0 fence/Bloom outcomes: a skip is
	// a table pruned without probing, a hit is a table the filter admitted.
	FilterHits  atomic.Int64
	FilterSkips atomic.Int64

	// MultiGetOps / MultiGetKeys describe batched point reads; their ratio is
	// the mean batch size. MultiGetCoalescedReads counts SSD block reads
	// avoided because co-located keys shared one device read (same block, or
	// adjacent blocks merged into one span ReadAt). MultiGetLatency is the
	// whole-batch latency histogram.
	MultiGetOps            atomic.Int64
	MultiGetKeys           atomic.Int64
	MultiGetCoalescedReads atomic.Int64
	MultiGetLatency        *histogram.Histogram

	// ScrubPasses / ScrubTables / ScrubBytes describe the background
	// integrity scrubber: passes completed, tables verified, and device bytes
	// re-read for verification. ScrubCorruptions counts checksum failures the
	// scrubber detected (per corrupt block or image, not per table).
	ScrubPasses      atomic.Int64
	ScrubTables      atomic.Int64
	ScrubBytes       atomic.Int64
	ScrubCorruptions atomic.Int64

	// QuarantineIncidents counts tables pulled from the live set after a
	// corruption detection (scrub or read-path); QuarantinedNow is the gauge
	// of corpses currently awaiting repair. UnavailableReads counts reads
	// that failed with ErrUnavailable because the sole candidate holder of
	// the key range is quarantined.
	QuarantineIncidents atomic.Int64
	QuarantinedNow      atomic.Int64
	UnavailableReads    atomic.Int64

	// RangeViewHits counts the partitions a range read (scan or iterator)
	// opened with a range-index view over the stable half;
	// RangeViewFallbacks those it opened without one (empty stable half, or
	// another reader building the view right then).
	// RangeViewBuilds / RangeViewBuildNanos count view constructions and
	// their cumulative wall time; RangeViewSegments / RangeViewBytes
	// accumulate the anchor-segment count and memory footprint of built
	// views (cumulative over builds, not a live gauge).
	RangeViewHits       atomic.Int64
	RangeViewFallbacks  atomic.Int64
	RangeViewBuilds     atomic.Int64
	RangeViewBuildNanos atomic.Int64
	RangeViewSegments   atomic.Int64
	RangeViewBytes      atomic.Int64

	// SnapshotsOpen is a gauge of snapshots currently open; MinActiveSeq
	// mirrors DB.MinActiveSeq at the last snapshot open/close — the retention
	// horizon flush and compaction honor. SnapshotScanLatency is the
	// end-to-end histogram for Snapshot.Scan.
	SnapshotsOpen       atomic.Int64
	MinActiveSeq        atomic.Uint64
	SnapshotScanLatency *histogram.Histogram

	// RepairPasses counts RepairQuarantined partition rebuilds;
	// RepairBlocksSkipped counts corrupt blocks salvage had to skip (the data
	// that was actually lost); RepairTablesRetired counts corpses retired.
	RepairPasses        atomic.Int64
	RepairBlocksSkipped atomic.Int64
	RepairTablesRetired atomic.Int64

	// cache backs CacheStats; nil when the engine runs uncached.
	cache *sstable.BlockCache
}

func newMetrics() *Metrics {
	return &Metrics{
		ReadLatency:         histogram.New(),
		WriteLatency:        histogram.New(),
		ScanLatency:         histogram.New(),
		MultiGetLatency:     histogram.New(),
		SnapshotScanLatency: histogram.New(),
	}
}

// CacheStats reports the block cache's aggregated hit/miss/eviction and
// occupancy counters (zero when no cache is configured).
func (m *Metrics) CacheStats() sstable.CacheStats {
	if m.cache == nil {
		return sstable.CacheStats{}
	}
	return m.cache.Stats()
}

// CacheShardStats reports the per-shard cache counters, for contention and
// imbalance analysis; nil when no cache is configured.
func (m *Metrics) CacheShardStats() []sstable.CacheStats {
	if m.cache == nil {
		return nil
	}
	return m.cache.ShardStats()
}

// CountRead records the tier that served a read.
func (m *Metrics) CountRead(t Tier) { m.readsByTier[t].Add(1) }

// ReadsBy reports reads served by tier t.
func (m *Metrics) ReadsBy(t Tier) int64 { return m.readsByTier[t].Load() }

// PMHitRatio reports the fraction of tier-resolved reads (PM, SSD) served
// from PM — memtable hits and misses are excluded, matching Figure 8(b)'s
// "proportion of read requests hitting PM".
func (m *Metrics) PMHitRatio() float64 {
	pm := float64(m.readsByTier[TierPM].Load())
	ssd := float64(m.readsByTier[TierSSD].Load())
	if pm+ssd == 0 {
		return 0
	}
	return pm / (pm + ssd)
}

// ResetLatencies clears the operation histograms (per-phase windows).
func (m *Metrics) ResetLatencies() {
	m.ReadLatency.Reset()
	m.WriteLatency.Reset()
	m.ScanLatency.Reset()
	m.MultiGetLatency.Reset()
	m.SnapshotScanLatency.Reset()
}

// WriteAmp summarizes write traffic by destination and cause — the paper's
// write-amplification accounting (Figure 8a, 11a).
type WriteAmp struct {
	// UserBytes is the logical payload written by the client (keys+values).
	UserBytes int64
	// PMBytes is the PM write bytes of everything but the log tail; SSDBytes
	// is the total SSD write bytes.
	PMBytes  int64
	SSDBytes int64
	// SSDWALBytes is the log files' portion of SSDBytes.
	SSDWALBytes int64
	// ByCause breaks down device writes, both devices summed, per cause label
	// ("flush", "internal", "major", "leveled", "wal"); "wal" includes the
	// log tail's PM writes.
	ByCause map[string]int64
}

// Total reports PM + SSD write traffic excluding the WAL (the paper's write
// amplification excludes logging).
func (w WriteAmp) Total() int64 { return w.PMBytes + w.SSDBytes - w.SSDWALBytes }

// Factor reports Total divided by the user payload.
func (w WriteAmp) Factor() float64 {
	if w.UserBytes == 0 {
		return 0
	}
	return float64(w.Total()) / float64(w.UserBytes)
}

// WriteAmp gathers the current write-amplification counters.
func (db *DB) WriteAmp() WriteAmp {
	wa := WriteAmp{
		UserBytes: db.userBytes.Load(),
		ByCause:   map[string]int64{},
	}
	causes := []device.Cause{
		device.CauseWAL, device.CauseFlush, device.CauseInternal,
		device.CauseMajor, device.CauseLeveled,
	}
	for _, c := range causes {
		n := db.ssd.Stats().WriteBytes(c)
		if db.pm != nil {
			n += db.pm.Stats().WriteBytes(c)
		}
		if n != 0 {
			wa.ByCause[c.String()] += n
		}
	}
	if db.pm != nil {
		wa.PMBytes = db.pm.Stats().TotalWriteBytes() - db.pm.Stats().WriteBytes(device.CauseWAL)
	}
	wa.SSDBytes = db.ssd.Stats().TotalWriteBytes()
	wa.SSDWALBytes = db.ssd.Stats().WriteBytes(device.CauseWAL)
	return wa
}
