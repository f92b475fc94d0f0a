package level0

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pmblade/internal/device"
	"pmblade/internal/kv"
	"pmblade/internal/pmem"
	"pmblade/internal/pmtable"
)

func newL0(t *testing.T) (*Level0, *pmem.Device) {
	t.Helper()
	dev := pmem.New(512<<20, pmem.FastProfile)
	return New(dev, Config{Format: pmtable.FormatPrefix, TargetTableSize: 16 << 10}), dev
}

// flushBatch builds a PM table from entries (sorted first) and adds it as an
// unsorted table, mimicking a minor compaction.
func flushBatch(t *testing.T, l *Level0, dev *pmem.Device, entries []kv.Entry) {
	t.Helper()
	sort.Slice(entries, func(i, j int) bool { return kv.Compare(entries[i], entries[j]) < 0 })
	res, err := pmtable.Build(dev, entries, pmtable.FormatPrefix, 8, device.CauseFlush)
	if err != nil {
		t.Fatal(err)
	}
	l.AddUnsorted(res.Table)
}

func TestGetSearchesAllUnsortedTables(t *testing.T) {
	l, dev := newL0(t)
	flushBatch(t, l, dev, []kv.Entry{{Key: []byte("k"), Value: []byte("v1"), Seq: 1}})
	flushBatch(t, l, dev, []kv.Entry{{Key: []byte("k"), Value: []byte("v2"), Seq: 2}})
	flushBatch(t, l, dev, []kv.Entry{{Key: []byte("x"), Value: []byte("other"), Seq: 3}})

	e, ok, stats := l.Get([]byte("k"), kv.MaxSeq)
	if !ok || string(e.Value) != "v2" {
		t.Fatalf("Get = %v,%v want v2", e, ok)
	}
	// Both tables holding "k" are probed; the table holding only "x" is
	// pruned by its fence keys without a PM access.
	if stats.Probed != 2 {
		t.Fatalf("probed %d tables, want 2 (read amplification)", stats.Probed)
	}
	if stats.FilterSkips != 1 {
		t.Fatalf("filter skips = %d, want 1 (the x-only table)", stats.FilterSkips)
	}
}

func TestGetFilterSkipsAbsentKey(t *testing.T) {
	l, dev := newL0(t)
	flushBatch(t, l, dev, []kv.Entry{
		{Key: []byte("a"), Value: []byte("va"), Seq: 1},
		{Key: []byte("z"), Value: []byte("vz"), Seq: 2},
	})
	// "m" is inside the fence range, so only the Bloom filter can prune it.
	_, ok, stats := l.Get([]byte("m"), kv.MaxSeq)
	if ok {
		t.Fatal("absent key found")
	}
	if stats.Probed != 0 || stats.FilterSkips != 1 {
		t.Fatalf("stats = %+v, want bloom filter to prune the probe", stats)
	}
}

func TestInternalCompactionReducesProbes(t *testing.T) {
	l, dev := newL0(t)
	for i := 0; i < 8; i++ {
		var entries []kv.Entry
		for j := 0; j < 50; j++ {
			entries = append(entries, kv.Entry{
				Key:   []byte(fmt.Sprintf("key-%03d", j)),
				Value: []byte(fmt.Sprintf("v%d-%d", i, j)),
				Seq:   uint64(i*50 + j + 1),
			})
		}
		flushBatch(t, l, dev, entries)
	}
	if unsorted, _ := l.Tables(); len(unsorted) != 8 {
		t.Fatalf("unsorted = %d", len(unsorted))
	}
	_, _, before := l.Get([]byte("key-025"), kv.MaxSeq)
	stats, err := l.CompactInternal(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if unsorted, _ := l.Tables(); len(unsorted) != 0 {
		t.Fatal("unsorted tables must be absorbed")
	}
	e, ok, after := l.Get([]byte("key-025"), kv.MaxSeq)
	if !ok || string(e.Value) != "v7-25" {
		t.Fatalf("lost newest version: %v %v", e, ok)
	}
	if after.Probed >= before.Probed {
		t.Fatalf("probes should drop: before=%d after=%d", before.Probed, after.Probed)
	}
	if stats.EntriesIn != 400 || stats.EntriesOut != 50 {
		t.Fatalf("stats = %+v, want 400 in 50 out", stats)
	}
	if stats.BytesReleased <= 0 {
		t.Fatalf("redundancy removal should release PM space: %+v", stats)
	}
}

func TestCompactionKeepsTombstonesWhenAsked(t *testing.T) {
	l, dev := newL0(t)
	flushBatch(t, l, dev, []kv.Entry{{Key: []byte("k"), Value: []byte("v"), Seq: 1}})
	flushBatch(t, l, dev, []kv.Entry{{Key: []byte("k"), Seq: 2, Kind: kv.KindDelete}})
	if _, err := l.CompactInternal(true, nil); err != nil {
		t.Fatal(err)
	}
	e, ok, _ := l.Get([]byte("k"), kv.MaxSeq)
	if !ok || e.Kind != kv.KindDelete {
		t.Fatalf("tombstone must survive: %v %v", e, ok)
	}
}

func TestCompactionDropsTombstonesAtBottom(t *testing.T) {
	l, dev := newL0(t)
	flushBatch(t, l, dev, []kv.Entry{
		{Key: []byte("a"), Value: []byte("va"), Seq: 1},
		{Key: []byte("k"), Value: []byte("v"), Seq: 2},
	})
	flushBatch(t, l, dev, []kv.Entry{{Key: []byte("k"), Seq: 3, Kind: kv.KindDelete}})
	if _, err := l.CompactInternal(false, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := l.Get([]byte("k"), kv.MaxSeq); ok {
		t.Fatal("tombstone and its shadowed key must vanish at bottom level")
	}
	if e, ok, _ := l.Get([]byte("a"), kv.MaxSeq); !ok || string(e.Value) != "va" {
		t.Fatalf("unrelated key lost: %v %v", e, ok)
	}
}

func TestCompactionSplitsIntoTargetSizedTables(t *testing.T) {
	dev := pmem.New(512<<20, pmem.FastProfile)
	l := New(dev, Config{Format: pmtable.FormatPrefix, TargetTableSize: 4 << 10})
	var entries []kv.Entry
	for j := 0; j < 2000; j++ {
		entries = append(entries, kv.Entry{
			Key:   []byte(fmt.Sprintf("key-%05d", j)),
			Value: bytes.Repeat([]byte("x"), 64),
			Seq:   uint64(j + 1),
		})
	}
	// Two batches so compaction has something to merge.
	flushBatch(t, l, dev, append([]kv.Entry(nil), entries[:1000]...))
	flushBatch(t, l, dev, append([]kv.Entry(nil), entries[1000:]...))
	if _, err := l.CompactInternal(true, nil); err != nil {
		t.Fatal(err)
	}
	_, sorted := l.Tables()
	if len(sorted) < 2 {
		t.Fatalf("expected multiple sorted tables, got %d", len(sorted))
	}
	// Sorted run must be non-overlapping and ascending.
	for i := 1; i < len(sorted); i++ {
		if bytes.Compare(sorted[i-1].Largest(), sorted[i].Smallest()) >= 0 {
			t.Fatalf("sorted run overlaps at %d", i)
		}
	}
	// Every key still readable with exactly one probe.
	for j := 0; j < 2000; j += 97 {
		k := []byte(fmt.Sprintf("key-%05d", j))
		e, ok, stats := l.Get(k, kv.MaxSeq)
		if !ok || e.Seq != uint64(j+1) {
			t.Fatalf("Get(%s) = %v %v", k, e, ok)
		}
		if stats.Probed != 1 {
			t.Fatalf("sorted-run get should probe 1 table, probed %d", stats.Probed)
		}
	}
}

func TestSkewedUpdatesReleaseMoreSpace(t *testing.T) {
	// The Table IV effect: higher skew => more redundancy => more space freed.
	release := func(skewed bool) int64 {
		dev := pmem.New(512<<20, pmem.FastProfile)
		l := New(dev, Config{Format: pmtable.FormatPrefix, TargetTableSize: 64 << 10})
		rng := rand.New(rand.NewSource(1))
		for b := 0; b < 10; b++ {
			var entries []kv.Entry
			for j := 0; j < 200; j++ {
				var k int
				if skewed {
					k = rng.Intn(20) // hot 20 keys
				} else {
					k = rng.Intn(2000)
				}
				entries = append(entries, kv.Entry{
					Key:   []byte(fmt.Sprintf("key-%05d", k)),
					Value: bytes.Repeat([]byte("v"), 100),
					Seq:   uint64(b*200 + j + 1),
				})
			}
			flushBatch(t, l, dev, entries)
		}
		stats, err := l.CompactInternal(true, nil)
		if err != nil {
			t.Fatal(err)
		}
		return stats.BytesReleased
	}
	skewedFree := release(true)
	uniformFree := release(false)
	if skewedFree <= uniformFree {
		t.Fatalf("skewed workload should free more PM: skewed=%d uniform=%d", skewedFree, uniformFree)
	}
}

func TestEvict(t *testing.T) {
	l, dev := newL0(t)
	flushBatch(t, l, dev, []kv.Entry{{Key: []byte("k"), Value: []byte("v"), Seq: 1}})
	used := dev.Used()
	if used == 0 {
		t.Fatal("device should have data")
	}
	freed := l.Evict()
	if freed == 0 || dev.Used() != 0 {
		t.Fatalf("evict freed %d, device used %d", freed, dev.Used())
	}
	if _, ok, _ := l.Get([]byte("k"), kv.MaxSeq); ok {
		t.Fatal("evicted data must be gone")
	}
	if unsorted, sorted := l.Tables(); len(unsorted)+len(sorted) != 0 {
		t.Fatal("level must be empty after evict")
	}
}

func TestCompactEmptyIsNoop(t *testing.T) {
	l, _ := newL0(t)
	stats, err := l.CompactInternal(true, nil)
	if err != nil || stats.TablesIn != 0 {
		t.Fatalf("empty compact: %+v %v", stats, err)
	}
}

func TestGetVisibilitySnapshot(t *testing.T) {
	l, dev := newL0(t)
	flushBatch(t, l, dev, []kv.Entry{
		{Key: []byte("k"), Value: []byte("v1"), Seq: 10},
		{Key: []byte("k"), Value: []byte("v2"), Seq: 20},
	})
	e, ok, _ := l.Get([]byte("k"), 15)
	if !ok || string(e.Value) != "v1" {
		t.Fatalf("Get@15 = %v,%v want v1", e, ok)
	}
	if _, ok, _ := l.Get([]byte("k"), 5); ok {
		t.Fatal("Get@5 should see nothing")
	}
}
