package main

import (
	"pmblade"
	"pmblade/internal/device"
)

// counters is one reading of every cumulative counter the public accessors
// give; per-layer metrics are differences of two readings.
type counters struct {
	ReadsMem, ReadsPM, ReadsSSD, ReadsMiss int64

	Flushes, Internals, Majors int64
	StallNs                    int64
	Evictions, EvictionNs      int64

	L0Probed, FilterHits, FilterSkips int64

	WALSyncs, WALEntries int64

	MGetOps, MGetKeys, MGetCoalesced int64

	ViewHits, ViewFallbacks, ViewBuilds, ViewBuildNs int64

	CacheHits, CacheMisses, CacheEvictions int64

	UserBytes, PMWrite, SSDWrite, WALBytes      int64
	FlushBytes, InternalBytes, MajorBytes       int64
	PMBusyNs, SSDBusyNs, SSDReadOps, SSDReadLen int64 // client reads only for the last two

	SchedBusyNs int64
}

func readCounters(db *pmblade.DB) counters {
	m := db.Metrics()
	wa := db.WriteAmp()
	cache := m.CacheStats()
	pm := db.Engine().PMDevice().Stats()
	sd := db.Engine().SSDDevice().Stats()
	return counters{
		ReadsMem:  m.ReadsBy(pmblade.TierMemtable),
		ReadsPM:   m.ReadsBy(pmblade.TierPM),
		ReadsSSD:  m.ReadsBy(pmblade.TierSSD),
		ReadsMiss: m.ReadsBy(0),

		Flushes:    m.FlushCount.Load(),
		Internals:  m.InternalCount.Load(),
		Majors:     m.MajorCount.Load(),
		StallNs:    m.WriteStallNanos.Load(),
		Evictions:  m.EvictionCount.Load(),
		EvictionNs: m.EvictionWallNanos.Load(),

		L0Probed:    m.L0TablesProbed.Load(),
		FilterHits:  m.FilterHits.Load(),
		FilterSkips: m.FilterSkips.Load(),

		WALSyncs:   m.WALCommitCount.Load(),
		WALEntries: m.WALCommitEntries.Load(),

		MGetOps:       m.MultiGetOps.Load(),
		MGetKeys:      m.MultiGetKeys.Load(),
		MGetCoalesced: m.MultiGetCoalescedReads.Load(),

		ViewHits:      m.RangeViewHits.Load(),
		ViewFallbacks: m.RangeViewFallbacks.Load(),
		ViewBuilds:    m.RangeViewBuilds.Load(),
		ViewBuildNs:   m.RangeViewBuildNanos.Load(),

		CacheHits:      cache.Hits,
		CacheMisses:    cache.Misses,
		CacheEvictions: cache.Evictions,

		UserBytes:     wa.UserBytes,
		PMWrite:       wa.PMBytes,
		SSDWrite:      wa.SSDBytes,
		WALBytes:      wa.SSDWALBytes,
		FlushBytes:    wa.ByCause[device.CauseFlush.String()],
		InternalBytes: wa.ByCause[device.CauseInternal.String()],
		MajorBytes:    wa.ByCause[device.CauseMajor.String()],

		PMBusyNs:   int64(pm.BusyTime()),
		SSDBusyNs:  int64(sd.BusyTime()),
		SSDReadOps: sd.ReadOps(device.CauseClientRead),
		SSDReadLen: sd.ReadBytes(device.CauseClientRead),

		SchedBusyNs: int64(db.Engine().Pool().CPUBusy()),
	}
}

// writeAmp is the paper's write amplification between two readings: device
// bytes written, PM and SSD, without the log, per user byte.
func writeAmp(from, to counters) float64 {
	return ratio(to.PMWrite+to.SSDWrite-to.WALBytes-(from.PMWrite+from.SSDWrite-from.WALBytes), to.UserBytes-from.UserBytes)
}

// ratio is a/b as a float, 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
