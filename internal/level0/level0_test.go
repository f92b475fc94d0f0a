package level0

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
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

// mustGet is Level0.Get over tables the test has not damaged.
func mustGet(t *testing.T, l *Level0, key []byte, seq uint64) (kv.Entry, bool, GetStats) {
	t.Helper()
	e, ok, stats, err := l.Get(key, seq)
	if err != nil {
		t.Fatalf("Get(%q, %d): %v", key, seq, err)
	}
	return e, ok, stats
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

	e, ok, stats := mustGet(t, l, []byte("k"), kv.MaxSeq)
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
	_, ok, stats := mustGet(t, l, []byte("m"), kv.MaxSeq)
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
	_, _, before := mustGet(t, l, []byte("key-025"), kv.MaxSeq)
	stats, err := l.CompactInternal(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if unsorted, _ := l.Tables(); len(unsorted) != 0 {
		t.Fatal("unsorted tables must be absorbed")
	}
	e, ok, after := mustGet(t, l, []byte("key-025"), kv.MaxSeq)
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
	e, ok, _ := mustGet(t, l, []byte("k"), kv.MaxSeq)
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
	if _, ok, _ := mustGet(t, l, []byte("k"), kv.MaxSeq); ok {
		t.Fatal("tombstone and its shadowed key must vanish at bottom level")
	}
	if e, ok, _ := mustGet(t, l, []byte("a"), kv.MaxSeq); !ok || string(e.Value) != "va" {
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
		e, ok, stats := mustGet(t, l, k, kv.MaxSeq)
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
	if _, ok, _ := mustGet(t, l, []byte("k"), kv.MaxSeq); ok {
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
	e, ok, _ := mustGet(t, l, []byte("k"), 15)
	if !ok || string(e.Value) != "v1" {
		t.Fatalf("Get@15 = %v,%v want v1", e, ok)
	}
	if _, ok, _ := mustGet(t, l, []byte("k"), 5); ok {
		t.Fatal("Get@5 should see nothing")
	}
}

// TestCorruptTableFailsLookupAndCompaction: a table whose first group no
// longer decodes fails a Get that needs it and an internal compaction that
// reads it with a *pmtable.CorruptionError; the level keeps its tables and the
// compaction's half-built output goes back to the arena.
func TestCorruptTableFailsLookupAndCompaction(t *testing.T) {
	l, dev := newL0(t)
	l.cfg.TargetTableSize = 1 << 10 // several outputs before the merge reaches the damage
	batch := func(lo, n int, seq uint64) (es []kv.Entry) {
		for i := lo; i < lo+n; i++ {
			es = append(es, kv.Entry{Key: []byte(fmt.Sprintf("key-%03d", i)), Value: bytes.Repeat([]byte{'v'}, 40), Seq: seq})
		}
		return es
	}
	flushBatch(t, l, dev, batch(0, 300, 1))
	flushBatch(t, l, dev, batch(200, 72, 2)) // newest
	rotted := l.unsorted[0]
	// Damage the last of its nine groups, which the merge reaches after most
	// of its output. The layout is pmtable/prefix.go's: with keys too short
	// for the dictionary, header and meta layer fill the image's first line,
	// the nine 28-byte slots the second — a slot ends in its group's offset
	// into the entry layer, which follows at 512 — and a group opens with its
	// dictionary index. No table has 255 dictionary entries.
	img, err := dev.View(rotted.Addr(), 0, rotted.SizeBytes(), device.CauseUnknown)
	if err != nil {
		t.Fatal(err)
	}
	group8 := 512 + int64(binary.LittleEndian.Uint32(img[256+8*28+24:]))
	if err := dev.WriteAt(rotted.Addr(), group8, []byte{0xff}, device.CauseUnknown); err != nil {
		t.Fatal(err)
	}

	_, ok, _, err := l.Get([]byte("key-271"), kv.MaxSeq)
	var ce *device.CorruptionError
	if ok || !errors.As(err, &ce) || pmem.Addr(ce.ID) != rotted.Addr() {
		t.Fatalf("Get = found %v, err %v; want a *CorruptionError at region %d, not the older table's version", ok, err, rotted.Addr())
	}

	unsorted, sorted := l.Tables()
	used := dev.Used()
	_, err = l.CompactInternal(false, nil)
	if ce = nil; !errors.As(err, &ce) || pmem.Addr(ce.ID) != rotted.Addr() {
		t.Fatalf("CompactInternal: %v, want a *CorruptionError at region %d", err, rotted.Addr())
	}
	if u, s := l.Tables(); !slices.Equal(u, unsorted) || !slices.Equal(s, sorted) {
		t.Fatalf("a failed compaction changed the level: %d+%d tables, was %d+%d", len(u), len(s), len(unsorted), len(sorted))
	}
	if dev.Used() != used {
		t.Fatalf("a failed compaction left %d bytes of output in PM", dev.Used()-used)
	}
}
