package experiments

import (
	"io"
	"testing"
	"time"

	"pmblade/internal/clock"
)

// Shape tests: run each experiment at a reduced scale and assert the
// qualitative result the paper reports — who wins and in which direction —
// rather than absolute numbers. These are the repository's regression net
// for the reproduction itself.

var testScale = Scale{Factor: 0.15}

func TestMain(m *testing.M) {
	clock.Calibrate()
	m.Run()
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape test")
	}
	res, _ := RunTable1(testScale, io.Discard)
	for i := range res.TableCounts {
		if res.PMTable[i] >= res.SSTOnSSD[i] {
			t.Errorf("tables=%d: PM (%v) must beat SSD (%v)",
				res.TableCounts[i], res.PMTable[i], res.SSTOnSSD[i])
		}
		// PM within an order of magnitude of the cache (paper: 3.3 vs 2.6us).
		if res.PMTable[i] > res.SSTCached[i]*20 {
			t.Errorf("tables=%d: PM (%v) too far from cache (%v)",
				res.TableCounts[i], res.PMTable[i], res.SSTCached[i])
		}
	}
}

func TestFig2aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape test")
	}
	res, _ := RunFig2a(testScale, io.Discard)
	last := len(res.EntrySizes) - 1
	// PM-write fraction dominates at large entries (paper: >50% beyond 40B).
	if res.WriteFrac[last] < 0.5 {
		t.Errorf("write fraction at %dB = %.2f, want > 0.5",
			res.EntrySizes[last], res.WriteFrac[last])
	}
	if res.WriteFrac[last] <= res.WriteFrac[0] {
		t.Errorf("write fraction should grow with entry size: %.2f -> %.2f",
			res.WriteFrac[0], res.WriteFrac[last])
	}
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape test")
	}
	res, _ := RunTable3(Scale{Factor: 0.1}, io.Discard)
	n := len(res.Threads)
	// I/O latency grows with thread count (paper: 3.9 -> 10.9ms). Allow
	// measurement noise when the test host is loaded: the tail of the sweep
	// must at least not be meaningfully below its head.
	head := res.IOLatency[0] + res.IOLatency[1]
	tail := res.IOLatency[n-2] + res.IOLatency[n-1]
	if float64(tail) < 0.9*float64(head) {
		t.Errorf("I/O latency should grow with threads: head %v tail %v",
			head/2, tail/2)
	}
	// Speedup saturates well below linear (paper: 1.9x at 5 threads).
	if res.Speedup[n-1] > 3.5 {
		t.Errorf("speedup at 5 threads = %.1fx, should saturate below 3.5x", res.Speedup[n-1])
	}
	// Both resources stay partially idle throughout.
	for i := range res.Threads {
		if res.CPUIdle[i] < 0.05 || res.IOIdle[i] < 0.05 {
			t.Errorf("threads=%d: cpu idle %.2f io idle %.2f — neither should saturate",
				res.Threads[i], res.CPUIdle[i], res.IOIdle[i])
		}
	}
}

func TestFig6aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape test")
	}
	res, _ := RunFig6a(testScale, io.Discard)
	pm := res.BuildTime["PM table"]
	// Allow scheduler noise on loaded machines: PM must not lose to the
	// array build by more than 25%, and must clearly beat the SSTable.
	if float64(pm) > 1.25*float64(res.BuildTime["Array-based"]) {
		t.Errorf("PM table build (%v) must not lose to Array-based (%v)", pm, res.BuildTime["Array-based"])
	}
	if pm >= res.BuildTime["SSTable"] {
		t.Errorf("PM table build (%v) must beat SSTable (%v)", pm, res.BuildTime["SSTable"])
	}
	// Snappy-group benefits from batch compression over per-entry snappy.
	if float64(res.BuildTime["Array-snappy-group"]) > 1.25*float64(res.BuildTime["Array-snappy"]) {
		t.Errorf("group compression (%v) should not build slower than per-entry (%v)",
			res.BuildTime["Array-snappy-group"], res.BuildTime["Array-snappy"])
	}
}

func TestFig6bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape test")
	}
	res, _ := RunFig6b(testScale, io.Discard)
	for i := range res.DataSizes {
		if res.ReadLatency["PM table"][i] >= res.ReadLatency["SSTable"][i] {
			t.Errorf("size %d: PM table (%v) must beat SSTable (%v)", res.DataSizes[i],
				res.ReadLatency["PM table"][i], res.ReadLatency["SSTable"][i])
		}
	}
	// Decompression cost shows at the largest size (small tables are noisy).
	last := len(res.DataSizes) - 1
	if res.ReadLatency["Array-snappy-group"][last] <= res.ReadLatency["Array-based"][last]/2 {
		t.Errorf("group decompression should not beat raw array by 2x at size %d", res.DataSizes[last])
	}
}

func TestTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape test")
	}
	res, _ := RunTable4(testScale, io.Discard)
	n := len(res.Skews)
	if res.Released[n-1] <= res.Released[0] {
		t.Errorf("released space must grow with skew: %d -> %d",
			res.Released[0], res.Released[n-1])
	}
	// At skew 1 the release should be a large fraction (paper: ~80%).
	frac := float64(res.Released[n-1]) / float64(res.UsedPre[n-1])
	if frac < 0.4 {
		t.Errorf("skew-1 release fraction %.2f too low", frac)
	}
}

func TestTable5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape test")
	}
	res, _ := RunTable5(testScale, io.Discard)
	var pmTotal, ssdTotal time.Duration
	for i := range res.ValueSizes {
		pmTotal += res.PMCharged[i]
		ssdTotal += res.SSDCharged[i]
	}
	// PM internal compaction wins in aggregate (paper: ~2x faster). The
	// comparison is on charged device time, which the op sequence determines;
	// the wall-clock durations the table prints also carry host scheduling
	// noise larger than the gap at test scale.
	if pmTotal >= ssdTotal {
		t.Errorf("PM compaction charged device time (%v) must beat SSD (%v)", pmTotal, ssdTotal)
	}
}

func TestFig7aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape test")
	}
	res, _ := RunFig7a(testScale, io.Discard)
	last := len(res.Checkpoints) - 1
	// PMBlade's read latency stays below PMBlade-PM's as data accumulates.
	if res.Latency[SysPMBlade][last] >= res.Latency[SysPMBladePM][last] {
		t.Errorf("PMBlade (%v) must beat PMBlade-PM (%v) at the last checkpoint",
			res.Latency[SysPMBlade][last], res.Latency[SysPMBladePM][last])
	}
	// PMBlade-PM degrades over time (read amplification).
	if res.Latency[SysPMBladePM][last] <= res.Latency[SysPMBladePM][0] {
		t.Errorf("PMBlade-PM should degrade: %v -> %v",
			res.Latency[SysPMBladePM][0], res.Latency[SysPMBladePM][last])
	}
}

func TestFig7bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape test")
	}
	res, _ := RunFig7b(testScale, io.Discard)
	lat := map[string][2]int{}
	for i, sys := range res.Systems {
		lat[sys] = [2]int{int(res.Avg[i]), int(res.P999[i])}
	}
	// Internal compaction's impact on reads is far smaller than SSD
	// compaction's (paper: avg 23% of PMBlade-SSD).
	if lat["PMBlade"][0] >= lat["PMBlade-SSD"][0] {
		t.Errorf("PMBlade during compaction (%d) must beat PMBlade-SSD (%d)",
			lat["PMBlade"][0], lat["PMBlade-SSD"][0])
	}
}

func TestFig8aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape test")
	}
	res, _ := RunFig8a(testScale, io.Discard)
	for di := 0; di < 2; di++ {
		pmblade := res.PMPart[SysPMBlade][di] + res.SSDPart[SysPMBlade][di]
		rocks := res.PMPart[SysRocksDB][di] + res.SSDPart[SysRocksDB][di]
		if pmblade >= rocks {
			t.Errorf("dist %d: PMBlade total WA (%d) must beat RocksDB (%d)", di, pmblade, rocks)
		}
		// PMBlade's SSD share shrinks vs PMBlade-PM under skew (internal
		// compaction absorbs amplification in PM).
		if di == 1 && res.SSDPart[SysPMBlade][di] >= res.SSDPart[SysPMBladePM][di] {
			t.Errorf("zipfian: PMBlade SSD writes (%d) must beat PMBlade-PM (%d)",
				res.SSDPart[SysPMBlade][di], res.SSDPart[SysPMBladePM][di])
		}
	}
}

func TestFig8bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape test")
	}
	res, _ := RunFig8b(testScale, io.Discard)
	wins := 0
	for i := range res.Skews {
		if res.PMBlade[i] > res.PMOnly[i] {
			wins++
		}
	}
	if wins < len(res.Skews)-1 {
		t.Errorf("PMBlade hit ratio should beat the conventional strategy (won %d/%d)",
			wins, len(res.Skews))
	}
	// Hit rate grows with skew for PMBlade.
	if res.PMBlade[len(res.Skews)-1] <= res.PMBlade[0] {
		t.Errorf("PMBlade hit rate should grow with skew: %.2f -> %.2f",
			res.PMBlade[0], res.PMBlade[len(res.Skews)-1])
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape test")
	}
	res, _ := RunFig10(testScale, io.Discard)
	tput := map[string]float64{}
	scan := map[string]int64{}
	for i, sys := range res.Systems {
		tput[sys] = res.Throughput[i]
		scan[sys] = int64(res.ScanLat[i])
	}
	// Moving level-0 to PM is the dominant gain (paper: PMB-P halves
	// latency vs PMBlade-SSD).
	if tput[SysPMBP] <= tput[SysPMBladeSSD] {
		t.Errorf("PMB-P throughput (%.0f) must beat PMBlade-SSD (%.0f)",
			tput[SysPMBP], tput[SysPMBladeSSD])
	}
	if scan[SysPMBlade] >= scan[SysPMBladeSSD] {
		t.Errorf("PMBlade scan (%d) must beat PMBlade-SSD (%d)",
			scan[SysPMBlade], scan[SysPMBladeSSD])
	}
}

func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape test")
	}
	res, _ := RunFig11(testScale, io.Discard)
	idx := map[string]int{}
	for i, sys := range res.Systems {
		idx[sys] = i
	}
	waOf := func(sys string) float64 {
		i := idx[sys]
		return float64(res.WAPm[i]+res.WASsd[i]) / float64(res.UserBytes[i])
	}
	if waOf(SysPMBlade) >= waOf(SysRocksDB) {
		t.Errorf("PMBlade WA (%.2f) must beat RocksDB (%.2f)", waOf(SysPMBlade), waOf(SysRocksDB))
	}
	if waOf(SysPMBlade) >= waOf(SysMatrixKV8) {
		t.Errorf("PMBlade WA (%.2f) must beat MatrixKV-8GB (%.2f)", waOf(SysPMBlade), waOf(SysMatrixKV8))
	}
	if res.Throughput[idx[SysPMBlade]] <= res.Throughput[idx[SysRocksDB]] {
		t.Error("PMBlade throughput must beat RocksDB")
	}
	if res.Throughput[idx[SysPMBlade]] <= res.Throughput[idx[SysMatrixKV8]] {
		t.Error("PMBlade throughput must beat MatrixKV-8GB")
	}
}

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape test")
	}
	if raceEnabled {
		t.Skip("throughput-ratio assertions are unreliable under the race detector's CPU slowdown")
	}
	res, _ := RunFig12(testScale, io.Discard)
	for wi, wl := range res.Workloads {
		if res.Throughput[SysPMBlade][wi] <= res.Throughput[SysRocksDB][wi] {
			t.Errorf("workload %s: PMBlade must beat RocksDB (%.0f vs %.0f)",
				wl, res.Throughput[SysPMBlade][wi], res.Throughput[SysRocksDB][wi])
		}
	}
	// Scan-heavy E: PMBlade's flat structure beats MatrixKV (paper: 2.4x).
	eIdx := 5
	if res.Throughput[SysPMBlade][eIdx] <= res.Throughput[SysMatrixKV8][eIdx] {
		t.Errorf("workload E: PMBlade must beat MatrixKV-8GB (%.0f vs %.0f)",
			res.Throughput[SysPMBlade][eIdx], res.Throughput[SysMatrixKV8][eIdx])
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig2a", "table3", "fig6a", "fig6b", "table4", "table5",
		"fig7a", "fig7b", "fig8a", "fig8b", "fig9", "fig10", "fig11", "fig12",
	}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(ids), len(want), ids)
	}
	for _, id := range want {
		if Registry[id] == nil {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if _, err := Run("nonsense", testScale, io.Discard); err == nil {
		t.Error("unknown experiment id must error")
	}
}
