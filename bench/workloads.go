package main

import (
	"fmt"

	"pmblade"
	"pmblade/bench/gen"
)

const (
	// rounds is the number of equal parts the timed phase is cut into; a
	// timing metric is the median over rounds of the per-round statistic.
	rounds = 30
	// tailWindow is the number of consecutive rounds one window of the put
	// tail percentiles spans: six windows, each with at least 800 puts on the smallest mix,
	// so at least 40 samples beyond the percentile.
	tailWindow = 5
	// setupRepeats and recoverRepeats are how often a run sets up and
	// recovers; setup_s and engine.recover_s are the medians.
	setupRepeats   = 3
	recoverRepeats = 5
	// tailPuts is the fixed recovery tail, written as Apply batches of
	// tailBatch after the post-phase checkpoint.
	tailPuts  = 20_000
	tailBatch = 32
	// loadBatch is the Apply batch size of the load.
	loadBatch = 16
	// verifyChunk is the entry limit of one Scan of the durability sweep.
	verifyChunk = 4096
)

// workload is one named set of inputs and the engine sizes it runs against.
// The phase issues opsPerSecond × (--seconds) operations: a fixed count, so
// counters compare across commits, sized on the reference host (2 vCPU) so
// that the phase lasts about --seconds.
type workload struct {
	name, why    string
	records      int
	valueBytes   int
	mix          gen.Mix // get, mget, scan, put
	theta        float64
	opsPerSecond int
	warmSeconds  int // untimed warm-up before the phase, as a count of opsPerSecond
	pmBytes      int64
	memtable     int64
	cache        int64
	partitions   int
	compact      bool // Compact() after the load: everything starts in the SSD run
	levelled     bool // the run fails unless write_amp has levelled off within the phase
}

var workloads = []workload{
	{
		name:    "hot-point",
		why:     "skewed reads served by PM level-0 (94 %) and memtable, never SSD: engine routing, level0/pmtable, bloom and memtable do the work, sstable/ssd none; the only place a read-path CPU saving shows",
		records: 40_000, valueBytes: 256, mix: gen.Mix{70, 10, 10, 10}, theta: 0.99,
		opsPerSecond: 20_000, warmSeconds: 6, pmBytes: 64 << 20, memtable: 512 << 10, cache: 8 << 20, partitions: 4,
	},
	{
		name:    "cold-read",
		why:     "data is 14x the block cache and 3.5x PM, all compacted to the SSD run: sstable, block cache, levels.Run and ssd do the work, level0 almost none; CPU savings must not show here",
		records: 200_000, valueBytes: 256, mix: gen.Mix{60, 20, 10, 10}, theta: 0,
		opsPerSecond: 4_000, warmSeconds: 2, pmBytes: 16 << 20, memtable: 1 << 20, cache: 4 << 20, partitions: 4, compact: true,
	},
	{
		name:    "scan-mix",
		why:     "scans beside writes: every flush or compaction install invalidates rangeindex views that scans rebuild, so a scan gain bought with heavier installs shows as worse put latency and ops_per_s",
		records: 40_000, valueBytes: 256, mix: gen.Mix{10, 10, 55, 25}, theta: 0,
		opsPerSecond: 10_000, warmSeconds: 2, pmBytes: 32 << 20, memtable: 256 << 10, cache: 8 << 20, partitions: 4,
	},
	{
		name:    "ingest",
		why:     "update-heavy, several times PM capacity written: wal, memtable, compaction, costmodel and sched do the work; write_amp must level off within the phase",
		records: 50_000, valueBytes: 512, mix: gen.Mix{10, 10, 10, 70}, theta: 0,
		opsPerSecond: 4_700, warmSeconds: 4, pmBytes: 8 << 20, memtable: 128 << 10, cache: 1 << 20, partitions: 16, levelled: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// spec is the generator input for a phase of `seconds`. The smoke test runs
// a hundredth of the operations on a twentieth of the records, which loses
// the tier isolation and keeps every code path.
func (w workload) spec(seconds int, smoke bool) gen.Spec {
	spec := gen.Spec{
		Records:    w.records,
		ValueBytes: w.valueBytes,
		Warm:       w.opsPerSecond * w.warmSeconds,
		Ops:        w.opsPerSecond * seconds,
		Mix:        w.mix,
		Theta:      w.theta,
		Tail:       tailPuts,
	}
	if smoke {
		spec.Records = max(spec.Records/20, 2_000)
		spec.Warm /= 100
		spec.Ops = max(spec.Ops/100, rounds*40)
		spec.Tail /= 100
	}
	spec.Ops = spec.Ops / rounds * rounds
	spec.Tail = max(spec.Tail/tailBatch, 1) * tailBatch
	return spec
}

// options is the engine configuration: the production write path (WAL on,
// background flush) on the realistic device profiles unless fast is set.
func (w workload) options(keys [][]byte, fast bool) pmblade.Options {
	o := pmblade.DefaultOptions()
	o.PMCapacityBytes = w.pmBytes
	o.MemtableBytes = w.memtable
	o.BlockCacheBytes = w.cache
	o.RealisticLatency = !fast
	for i := 1; i < w.partitions; i++ {
		o.PartitionBoundaries = append(o.PartitionBoundaries, keys[len(keys)*i/w.partitions])
	}
	return o
}

// liveBytes is the user data a fully loaded store holds: every key is
// loaded once and only ever overwritten.
func (w workload) liveBytes(keys [][]byte) int64 {
	return int64(len(keys)) * int64(len(keys[0])+w.valueBytes)
}
