package levels

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"pmblade/internal/device"
	"pmblade/internal/kv"
	"pmblade/internal/ssd"
	"pmblade/internal/sstable"
)

func buildSST(t *testing.T, dev *ssd.Device, entries []kv.Entry) *sstable.Table {
	t.Helper()
	sort.Slice(entries, func(i, j int) bool { return kv.Compare(entries[i], entries[j]) < 0 })
	b := sstable.NewBuilder(dev, device.CauseMajor)
	for _, e := range entries {
		if err := b.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func rangeEntries(lo, hi int, seqBase uint64) []kv.Entry {
	var out []kv.Entry
	for i := lo; i < hi; i++ {
		out = append(out, kv.Entry{
			Key:   []byte(fmt.Sprintf("key-%05d", i)),
			Value: []byte(fmt.Sprintf("v%d", i)),
			Seq:   seqBase + uint64(i),
		})
	}
	return out
}

func TestRunGetRoutesToRightTable(t *testing.T) {
	dev := ssd.New(ssd.FastProfile)
	r := NewRun()
	r.Replace(nil, []*sstable.Table{
		buildSST(t, dev, rangeEntries(0, 100, 0)),
		buildSST(t, dev, rangeEntries(100, 200, 0)),
		buildSST(t, dev, rangeEntries(200, 300, 0)),
	})
	for _, i := range []int{0, 99, 100, 250, 299} {
		k := []byte(fmt.Sprintf("key-%05d", i))
		e, ok, err := r.Get(k, kv.MaxSeq)
		if err != nil || !ok || string(e.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) = %v %v %v", k, e, ok, err)
		}
	}
	if _, ok, _ := r.Get([]byte("key-00300"), kv.MaxSeq); ok {
		t.Fatal("absent key found")
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestRunOverlapping(t *testing.T) {
	dev := ssd.New(ssd.FastProfile)
	t1 := buildSST(t, dev, rangeEntries(0, 100, 0))
	t2 := buildSST(t, dev, rangeEntries(100, 200, 0))
	t3 := buildSST(t, dev, rangeEntries(200, 300, 0))
	r := NewRun()
	r.Replace(nil, []*sstable.Table{t1, t2, t3})

	ov := r.Overlapping([]byte("key-00150"), []byte("key-00250"))
	if len(ov) != 2 || ov[0] != t2 || ov[1] != t3 {
		t.Fatalf("overlap = %d tables", len(ov))
	}
	if got := r.Overlapping(nil, nil); len(got) != 3 {
		t.Fatalf("unbounded overlap = %d", len(got))
	}
	if got := r.Overlapping([]byte("zzz"), nil); len(got) != 0 {
		t.Fatalf("no-overlap = %d", len(got))
	}
}

func TestRunReplaceSwapsAtomically(t *testing.T) {
	dev := ssd.New(ssd.FastProfile)
	t1 := buildSST(t, dev, rangeEntries(0, 100, 0))
	t2 := buildSST(t, dev, rangeEntries(100, 200, 0))
	r := NewRun()
	r.Replace(nil, []*sstable.Table{t1, t2})

	// Replace t1 with two newer halves.
	n1 := buildSST(t, dev, rangeEntries(0, 50, 1000))
	n2 := buildSST(t, dev, rangeEntries(50, 100, 1000))
	r.Replace([]*sstable.Table{t1}, []*sstable.Table{n1, n2})
	if r.Len() != 3 {
		t.Fatalf("Len = %d want 3", r.Len())
	}
	e, ok, _ := r.Get([]byte("key-00010"), kv.MaxSeq)
	if !ok || e.Seq < 1000 {
		t.Fatalf("should read from the new table: %v %v", e, ok)
	}
	// Order maintained.
	ts := r.Tables()
	for i := 1; i < len(ts); i++ {
		if bytes.Compare(ts[i-1].Largest(), ts[i].Smallest()) >= 0 {
			t.Fatal("run out of order after replace")
		}
	}
}

func TestLeveledL0NewestFirst(t *testing.T) {
	dev := ssd.New(ssd.FastProfile)
	l := NewLeveled(4, 1<<20)
	older := buildSST(t, dev, []kv.Entry{{Key: []byte("k"), Value: []byte("old"), Seq: 1}})
	newer := buildSST(t, dev, []kv.Entry{{Key: []byte("k"), Value: []byte("new"), Seq: 2}})
	l.AddL0(older)
	before := l.L0Tables()
	l.AddL0(newer)
	if l0 := l.L0Tables(); len(l0) != 2 || l0[0] != newer || l0[1] != older {
		t.Fatalf("L0 = %v, want newest first", l0)
	}
	if len(before) != 1 || before[0] != older {
		t.Fatal("AddL0 edited a slice it had already handed out")
	}
}

func TestRunTablesFallThroughLevels(t *testing.T) {
	dev := ssd.New(ssd.FastProfile)
	l := NewLeveled(4, 1<<20)
	l.Run(1).Replace(nil, []*sstable.Table{buildSST(t, dev, rangeEntries(0, 50, 100))})
	l.Run(2).Replace(nil, []*sstable.Table{buildSST(t, dev, rangeEntries(50, 100, 0))})
	runs := l.RunTables()
	if len(runs) != 2 {
		t.Fatalf("RunTables = %d levels", len(runs))
	}
	if e, ok, _ := Get(runs[0], []byte("key-00010"), kv.MaxSeq); !ok || e.Seq < 100 {
		t.Fatalf("L1 key: %v %v", e, ok)
	}
	if _, ok, _ := Get(runs[0], []byte("key-00060"), kv.MaxSeq); ok {
		t.Fatal("L1 must not hold an L2 key")
	}
	if e, ok, _ := Get(runs[1], []byte("key-00060"), kv.MaxSeq); !ok || e.Seq >= 100 {
		t.Fatalf("L2 key: %v %v", e, ok)
	}
}

func TestGetBatchMatchesGet(t *testing.T) {
	dev := ssd.New(ssd.FastProfile)
	tables := []*sstable.Table{
		buildSST(t, dev, rangeEntries(0, 100, 0)),
		buildSST(t, dev, rangeEntries(100, 200, 0)),
		buildSST(t, dev, rangeEntries(300, 400, 0)),
	}
	var keys [][]byte
	for _, i := range []int{5, 150, 7, 250, 399, 400} {
		keys = append(keys, []byte(fmt.Sprintf("key-%05d", i)))
	}
	out := make([]kv.Entry, len(keys))
	found := make([]bool, len(keys))
	found[2] = true // already resolved upstream: must be left alone
	if _, err := GetBatch(tables, keys, kv.MaxSeq, out, found); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if i == 2 {
			if out[i].Value != nil {
				t.Fatal("GetBatch overwrote a key already marked found")
			}
			continue
		}
		e, ok, _ := Get(tables, k, kv.MaxSeq)
		if found[i] != ok || string(out[i].Value) != string(e.Value) {
			t.Fatalf("GetBatch(%s) = %q %v, Get = %q %v", k, out[i].Value, found[i], e.Value, ok)
		}
	}
}

func TestLeveledRemoveDetachesFromAnyLevel(t *testing.T) {
	dev := ssd.New(ssd.FastProfile)
	l := NewLeveled(4, 1<<20)
	inL0 := buildSST(t, dev, rangeEntries(0, 10, 100))
	inL2 := buildSST(t, dev, rangeEntries(50, 100, 0))
	l.AddL0(inL0)
	l.Run(2).Replace(nil, []*sstable.Table{inL2})
	l.Remove(inL0)
	l.Remove(inL2)
	if len(l.L0Tables()) != 0 || l.Run(2).Len() != 0 {
		t.Fatal("Remove left the table attached")
	}
}

func TestLeveledPickCompaction(t *testing.T) {
	dev := ssd.New(ssd.FastProfile)
	l := NewLeveled(2, 100)
	if _, ok := l.PickCompaction(); ok {
		t.Fatal("empty tree needs no compaction")
	}
	l.AddL0(buildSST(t, dev, rangeEntries(0, 10, 0)))
	l.AddL0(buildSST(t, dev, rangeEntries(0, 10, 100)))
	lvl, ok := l.PickCompaction()
	if !ok || lvl != 0 {
		t.Fatalf("want L0 compaction, got %d %v", lvl, ok)
	}
	l.RemoveL0(l.L0Tables())
	// Oversized L1 must be picked next.
	l.Run(1).Replace(nil, []*sstable.Table{buildSST(t, dev, rangeEntries(0, 100, 0))})
	lvl, ok = l.PickCompaction()
	if !ok || lvl != 1 {
		t.Fatalf("want L1 compaction, got %d %v", lvl, ok)
	}
}

func TestLeveledRemoveL0(t *testing.T) {
	dev := ssd.New(ssd.FastProfile)
	l := NewLeveled(4, 1<<20)
	t1 := buildSST(t, dev, rangeEntries(0, 10, 0))
	t2 := buildSST(t, dev, rangeEntries(0, 10, 100))
	l.AddL0(t1)
	l.AddL0(t2)
	l.RemoveL0([]*sstable.Table{t1})
	if len(l.L0Tables()) != 1 {
		t.Fatalf("L0 len = %d", len(l.L0Tables()))
	}
	if l.L0Tables()[0] != t2 {
		t.Fatal("wrong table removed")
	}
}

func TestRunSizeBytes(t *testing.T) {
	dev := ssd.New(ssd.FastProfile)
	r := NewRun()
	if r.SizeBytes() != 0 {
		t.Fatal("empty size")
	}
	r.Replace(nil, []*sstable.Table{buildSST(t, dev, rangeEntries(100, 200, 0))})
	if r.SizeBytes() <= 0 {
		t.Fatal("size should be positive")
	}
}
