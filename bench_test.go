// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark per experiment — run with `go test -bench=.`), plus
// micro-benchmarks of the core data structures.
//
// Experiment benchmarks run each experiment once per b.N iteration at a
// small scale and print its paper-style table on the first iteration; the
// reported ns/op is the full experiment wall time. For the full-size runs
// recorded in EXPERIMENTS.md, use cmd/pmblade-repro.
package pmblade

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pmblade/internal/clock"
	"pmblade/internal/device"
	"pmblade/internal/experiments"
	"pmblade/internal/pmem"
	"pmblade/internal/ssd"
)

// benchScale keeps experiment benchmarks fast enough for -bench=. sweeps.
var benchScale = experiments.Scale{Factor: 0.1}

// runExperiment executes one registered experiment; output is printed only
// on the first iteration to keep bench logs readable.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	clock.Calibrate()
	for i := 0; i < b.N; i++ {
		var w io.Writer = io.Discard
		if i == 0 && testing.Verbose() {
			w = benchWriter{b}
		}
		if _, err := experiments.Run(id, benchScale, w); err != nil {
			b.Fatal(err)
		}
	}
}

type benchWriter struct{ b *testing.B }

func (w benchWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

// --- One benchmark per paper table / figure -------------------------------

func BenchmarkTable1QueryLatency(b *testing.B)        { runExperiment(b, "table1") }
func BenchmarkFig2aFlushBreakdown(b *testing.B)       { runExperiment(b, "fig2a") }
func BenchmarkTable3ThreadCompaction(b *testing.B)    { runExperiment(b, "table3") }
func BenchmarkFig6aMinorCompaction(b *testing.B)      { runExperiment(b, "fig6a") }
func BenchmarkFig6bStructureReadLatency(b *testing.B) { runExperiment(b, "fig6b") }
func BenchmarkTable4SpaceReleased(b *testing.B)       { runExperiment(b, "table4") }
func BenchmarkTable5CompactionDuration(b *testing.B)  { runExperiment(b, "table5") }
func BenchmarkFig7aReadAmplification(b *testing.B)    { runExperiment(b, "fig7a") }
func BenchmarkFig7bReadDuringCompaction(b *testing.B) { runExperiment(b, "fig7b") }
func BenchmarkFig8aWriteAmplification(b *testing.B)   { runExperiment(b, "fig8a") }
func BenchmarkFig8bPMHitRatio(b *testing.B)           { runExperiment(b, "fig8b") }
func BenchmarkFig9CoroutineCompaction(b *testing.B)   { runExperiment(b, "fig9") }
func BenchmarkFig10Ablation(b *testing.B)             { runExperiment(b, "fig10") }
func BenchmarkFig11SystemsRetail(b *testing.B)        { runExperiment(b, "fig11") }
func BenchmarkFig12YCSB(b *testing.B)                 { runExperiment(b, "fig12") }

// --- Core-structure micro-benchmarks ---------------------------------------

func benchDB(b *testing.B) *DB {
	b.Helper()
	db, err := Open(FastOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

func BenchmarkEnginePut(b *testing.B) {
	db := benchDB(b)
	val := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%012d", i)), val); err != nil {
			b.Fatal(err)
		}
	}
}

// parallelBenchDB builds a write-heavy multi-writer configuration: WAL on a
// realistic NVMe profile (so commit cost is visible and group commit has
// something to amortize) and four range partitions over the random key space
// the workload draws from.
func parallelBenchDB(b *testing.B) *DB {
	b.Helper()
	cfg := FastOptions().resolve()
	cfg.DisableWAL = false
	cfg.SSDProfile = ssd.NVMeProfile
	cfg.MemtableBytes = 1 << 20
	cfg.PartitionBoundaries = [][]byte{
		[]byte(fmt.Sprintf("key-%012d", int64(100_000_000_000))),
		[]byte(fmt.Sprintf("key-%012d", int64(200_000_000_000))),
		[]byte(fmt.Sprintf("key-%012d", int64(300_000_000_000))),
	}
	db, err := OpenEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

// benchWriters fixes the number of concurrent writer goroutines.
// RunParallel defaults to GOMAXPROCS workers, which degenerates to a serial
// loop on small machines; commit concurrency is what these benchmarks
// measure, so pin it rather than inherit the core count.
const benchWriters = 16

func BenchmarkEnginePutParallel(b *testing.B) {
	db := parallelBenchDB(b)
	var seed atomic.Int64
	b.SetParallelism((benchWriters + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		val := make([]byte, 256)
		for pb.Next() {
			k := []byte(fmt.Sprintf("key-%012d", rng.Int63n(400_000_000_000)))
			if err := db.Put(k, val); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEngineBatchParallel(b *testing.B) {
	db := parallelBenchDB(b)
	var seed atomic.Int64
	b.SetParallelism((benchWriters + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		val := make([]byte, 256)
		var batch Batch
		for pb.Next() {
			batch.Reset()
			for j := 0; j < 10; j++ {
				batch.Put([]byte(fmt.Sprintf("key-%012d", rng.Int63n(400_000_000_000))), val)
			}
			if err := db.Apply(&batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEngineGetMemtable(b *testing.B) {
	db := benchDB(b)
	val := make([]byte, 256)
	const n = 10000
	for i := 0; i < n; i++ {
		db.Put([]byte(fmt.Sprintf("key-%06d", i)), val)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Get([]byte(fmt.Sprintf("key-%06d", rng.Intn(n)))); err != nil {
			b.Fatal(err)
		}
	}
}

// pmResidentDB builds a store on the Optane profile whose n records sit in PM
// level-0 and returns it with their keys: a PM-served read is mostly charged
// device accesses, which a zero-latency profile would hide, and keys built
// ahead keep the benchmark's own allocations out of allocs/op.
func pmResidentDB(b *testing.B, n int) (*DB, [][]byte) {
	b.Helper()
	cfg := FastOptions().resolve()
	cfg.PMProfile = pmem.OptaneProfile
	db, err := OpenEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	val := make([]byte, 256)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", i))
		db.Put(keys[i], val)
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	return db, keys
}

// measurePMAccesses starts the timed part of a PM-resident benchmark; the
// function it returns reports the PM line fetches charged per op since.
func measurePMAccesses(b *testing.B, db *DB) (report func()) {
	pm := db.Engine().PMDevice().Stats()
	busy := pm.BusyTime()
	b.ReportAllocs()
	b.ResetTimer()
	return func() {
		b.ReportMetric(float64(pm.BusyTime()-busy)/float64(pmem.OptaneProfile.ReadLatency)/float64(b.N), "pm-accesses/op")
	}
}

// BenchmarkEngineGetPMLevel0 reads from PM level-0 on the Optane profile and
// reports the charged accesses and the allocations beside ns/op.
func BenchmarkEngineGetPMLevel0(b *testing.B) {
	const n = 10000
	db, keys := pmResidentDB(b, n)
	rng := rand.New(rand.NewSource(1))
	report := measurePMAccesses(b, db)
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Get(keys[rng.Intn(n)]); err != nil {
			b.Fatal(err)
		}
	}
	report()
}

func BenchmarkEngineGetSSD(b *testing.B) {
	db := benchDB(b)
	val := make([]byte, 256)
	const n = 10000
	for i := 0; i < n; i++ {
		db.Put([]byte(fmt.Sprintf("key-%06d", i)), val)
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Get([]byte(fmt.Sprintf("key-%06d", rng.Intn(n)))); err != nil {
			b.Fatal(err)
		}
	}
}

// scrubOnDB mirrors benchDB with the background scrubber enabled:
// back-to-back passes (1ms interval) at the default 8 MiB/s rate limit, the
// worst realistic steady-state interference a read benchmark can see.
func scrubOnDB(b *testing.B) *DB {
	b.Helper()
	cfg := FastOptions().resolve()
	cfg.ScrubInterval = time.Millisecond
	db, err := OpenEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

// BenchmarkEngineGetSSDScrubOn is BenchmarkEngineGetSSD with the background
// scrubber running throughout; the pair bounds the scrub's read-path tax
// (<5% is the acceptance threshold, see BENCH_read.json).
func BenchmarkEngineGetSSDScrubOn(b *testing.B) {
	db := scrubOnDB(b)
	val := make([]byte, 256)
	const n = 10000
	for i := 0; i < n; i++ {
		db.Put([]byte(fmt.Sprintf("key-%06d", i)), val)
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Get([]byte(fmt.Sprintf("key-%06d", rng.Intn(n)))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineScan100ScrubOn pairs with BenchmarkEngineScan100 the same
// way.
func BenchmarkEngineScan100ScrubOn(b *testing.B) {
	db := scrubOnDB(b)
	val := make([]byte, 256)
	const n = 20000
	for i := 0; i < n; i++ {
		db.Put([]byte(fmt.Sprintf("key-%06d", i)), val)
	}
	db.Flush()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Intn(n - 200)
		if _, err := db.Scan([]byte(fmt.Sprintf("key-%06d", lo)), nil, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// ssdResidentDB builds a store whose working set lives on SSD (flushed and
// major-compacted), the tier where cache sharding and read coalescing matter.
func ssdResidentDB(b *testing.B, n int) *DB {
	b.Helper()
	db := benchDB(b)
	val := make([]byte, 256)
	for i := 0; i < n; i++ {
		db.Put([]byte(fmt.Sprintf("key-%06d", i)), val)
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkEngineGetParallel measures point-read scaling: concurrent random
// Gets against SSD-resident data, where the sharded block cache is the shared
// structure under contention.
func BenchmarkEngineGetParallel(b *testing.B) {
	const n = 10000
	db := ssdResidentDB(b, n)
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			if _, _, err := db.Get([]byte(fmt.Sprintf("key-%06d", rng.Intn(n)))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineMultiGet measures one batch of 16 uniform keys per op
// against PM-resident data on the Optane profile: 16 PM-served Gets' worth of
// charged accesses and allocations, plus the batch's own.
func BenchmarkEngineMultiGet(b *testing.B) {
	const n = 10000
	const batch = 16
	db, all := pmResidentDB(b, n)
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, batch)
	report := measurePMAccesses(b, db)
	for i := 0; i < b.N; i++ {
		for j := range keys {
			keys[j] = all[rng.Intn(n)]
		}
		res, err := db.MultiGet(keys)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != batch {
			b.Fatal("short result")
		}
	}
	report()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
}

// BenchmarkEngineMultiGetSSDCold is the SSD side of BenchmarkEngineMultiGet
// (whose records all sit in PM): 16 uniform keys per batch
// over a run of at least 8 tables on the NVMe profile, with a block cache a
// twentieth of the data, so nearly every key costs a device read and ns/key
// is set by how the batch's reads wait for the device — one behind the other,
// or together. reads/op says how many there were.
func BenchmarkEngineMultiGetSSDCold(b *testing.B) {
	const n = 20000
	const batch = 16
	cfg := FastOptions().resolve()
	cfg.SSDProfile = ssd.NVMeProfile // PM stays zero-latency: the load is not what is measured
	cfg.SSTableBytes = 512 << 10
	cfg.BlockCacheBytes = 256 << 10
	db, err := OpenEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	val := make([]byte, 256)
	for i := 0; i < n; i++ {
		db.Put([]byte(fmt.Sprintf("key-%06d", i)), val)
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		b.Fatal(err)
	}
	if tables := len(db.Engine().RotTargets()); tables < 8 {
		b.Fatalf("the run has %d tables, want at least 8", tables)
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, batch)
	reads := db.Engine().SSDDevice().Stats().ReadOps(device.CauseClientRead)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range keys {
			keys[j] = []byte(fmt.Sprintf("key-%06d", rng.Intn(n)))
		}
		res, err := db.MultiGet(keys)
		if err != nil {
			b.Fatal(err)
		}
		for j, r := range res {
			if r.Err != nil || !r.Found {
				b.Fatalf("MultiGet(%s): found=%v err=%v", keys[j], r.Found, r.Err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
	b.ReportMetric(float64(db.Engine().SSDDevice().Stats().ReadOps(device.CauseClientRead)-reads)/float64(b.N), "reads/op")
}

// BenchmarkEngineScan10 measures short range scans against SSD-resident data:
// the regime where per-scan setup (seek, view anchor search or heap build)
// dominates over per-entry cost.
func BenchmarkEngineScan10(b *testing.B) {
	const n = 20000
	db := ssdResidentDB(b, n)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Intn(n - 20)
		if _, err := db.Scan([]byte(fmt.Sprintf("key-%06d", lo)), nil, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineIteratorSeekNext opens an iterator at a random key and
// streams 100 entries — the pull-based counterpart of Scan100. The store has
// one partition, so no partition hop happens here.
func BenchmarkEngineIteratorSeekNext(b *testing.B) {
	const n = 20000
	db := ssdResidentDB(b, n)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Intn(n - 200)
		it, err := db.NewIterator([]byte(fmt.Sprintf("key-%06d", lo)), nil)
		if err != nil {
			b.Fatal(err)
		}
		got := 0
		for ; it.Valid() && got < 100; it.Next() {
			got++
		}
		if err := it.Err(); err != nil {
			b.Fatal(err)
		}
		it.Close()
		if got != 100 {
			b.Fatalf("iterator yielded %d entries", got)
		}
	}
}

func BenchmarkEngineScan100(b *testing.B) {
	db := benchDB(b)
	val := make([]byte, 256)
	const n = 20000
	for i := 0; i < n; i++ {
		db.Put([]byte(fmt.Sprintf("key-%06d", i)), val)
	}
	db.Flush()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Intn(n - 200)
		if _, err := db.Scan([]byte(fmt.Sprintf("key-%06d", lo)), nil, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineScan50Partitioned is the scan every workload issues — start
// key, no end, limit 50 — against PM-resident data on a range-partitioned
// store, the shape the single-partition scan benchmarks cannot see: beside
// ns/op and allocs/op it reports how many partitions a scan opened, which is
// 1 plus the share of scans that cross a boundary however many partitions lie
// to the right of the start key.
func BenchmarkEngineScan50Partitioned(b *testing.B) {
	for _, parts := range []int{4, 16} {
		b.Run(fmt.Sprintf("parts=%d", parts), func(b *testing.B) {
			const n = 16000
			cfg := FastOptions().resolve()
			cfg.PMProfile = pmem.OptaneProfile
			for i := 1; i < parts; i++ {
				cfg.PartitionBoundaries = append(cfg.PartitionBoundaries, []byte(fmt.Sprintf("key-%06d", i*n/parts)))
			}
			db, err := OpenEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { db.Close() })
			val := make([]byte, 256)
			for i := 0; i < n; i++ {
				db.Put([]byte(fmt.Sprintf("key-%06d", i)), val)
			}
			if err := db.Flush(); err != nil {
				b.Fatal(err)
			}
			// A sorted PM run per partition, so scans go through the range view
			// as they do in the state a running store keeps.
			if err := db.Engine().InternalCompactAll(); err != nil {
				b.Fatal(err)
			}
			m := db.Engine().Metrics()
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			opens := m.RangeViewHits.Load() + m.RangeViewFallbacks.Load()
			for i := 0; i < b.N; i++ {
				lo := rng.Intn(n - 100)
				if _, err := db.Scan([]byte(fmt.Sprintf("key-%06d", lo)), nil, 50); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m.RangeViewHits.Load()+m.RangeViewFallbacks.Load()-opens)/float64(b.N), "partitions/op")
		})
	}
}

// benchScan100 runs 100-entry range scans against SSD-resident data with the
// given block cache size; cacheBytes 0 disables the cache entirely so every
// block comes off the device (the cold case).
func benchScan100(b *testing.B, cacheBytes int64) {
	cfg := FastOptions().resolve()
	cfg.BlockCacheBytes = cacheBytes
	db, err := OpenEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	val := make([]byte, 256)
	const n = 20000
	for i := 0; i < n; i++ {
		db.Put([]byte(fmt.Sprintf("key-%06d", i)), val)
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Intn(n - 200)
		if _, err := db.Scan([]byte(fmt.Sprintf("key-%06d", lo)), nil, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineScan100SSDCold scans with no block cache: readahead is the
// only mitigation for device latency.
func BenchmarkEngineScan100SSDCold(b *testing.B) { benchScan100(b, 0) }

// BenchmarkEngineScan100SSDHot scans with a cache large enough to hold the
// working set, so steady state serves from the sharded cache.
func BenchmarkEngineScan100SSDHot(b *testing.B) { benchScan100(b, 64<<20) }

// Ablation bench: group size 8 vs 16 in the prefix PM table (a design knob
// DESIGN.md calls out; the paper uses "eight or sixteen").
func BenchmarkAblationGroupSize(b *testing.B) {
	for _, gs := range []int{8, 16} {
		gs := gs
		b.Run(fmt.Sprintf("group%d", gs), func(b *testing.B) {
			cfg := FastOptions().resolve()
			cfg.GroupSize = gs
			db, err := OpenEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			val := make([]byte, 256)
			const n = 10000
			for i := 0; i < n; i++ {
				db.Put([]byte(fmt.Sprintf("key-%06d", i)), val)
			}
			db.Flush()
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.Get([]byte(fmt.Sprintf("key-%06d", rng.Intn(n))))
			}
		})
	}
}

// BenchmarkAblationMemoryDevice compares the level-0 memory tiers the paper
// discusses: Optane persistent memory vs CXL expanded memory (the conclusion's
// future-work direction), on a 50/50 point workload.
func BenchmarkAblationMemoryDevice(b *testing.B) {
	profiles := map[string]pmem.Profile{
		"optane": pmem.OptaneProfile,
		"cxl":    pmem.CXLProfile,
	}
	for name, prof := range profiles {
		name, prof := name, prof
		b.Run(name, func(b *testing.B) {
			cfg := FastOptions().resolve()
			cfg.PMProfile = prof
			db, err := OpenEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			val := make([]byte, 256)
			const n = 8000
			for i := 0; i < n; i++ {
				db.Put([]byte(fmt.Sprintf("key-%06d", i)), val)
			}
			db.Flush()
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rng.Intn(2) == 0 {
					db.Put([]byte(fmt.Sprintf("key-%06d", rng.Intn(n))), val)
				} else {
					db.Get([]byte(fmt.Sprintf("key-%06d", rng.Intn(n))))
				}
			}
		})
	}
}
