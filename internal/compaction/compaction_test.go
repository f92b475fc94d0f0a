package compaction

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"pmblade/internal/device"
	"pmblade/internal/kv"
	"pmblade/internal/sched"
	"pmblade/internal/ssd"
	"pmblade/internal/sstable"
)

func runOne(t *testing.T, mode sched.Mode, sources []kv.Iterator, p Params) []*sstable.Table {
	t.Helper()
	pool := sched.NewPool(mode, 2, 4, p.Dev)
	var out []*sstable.Table
	var err error
	pool.Run([]sched.Task{func(ctx *sched.Ctx) {
		out, err = Run(ctx, sources, p)
	}})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func entriesOf(t *testing.T, tables []*sstable.Table) []kv.Entry {
	t.Helper()
	var out []kv.Entry
	for _, tbl := range tables {
		it := tbl.NewIterator()
		it.SeekToFirst()
		for ; it.Valid(); it.Next() {
			e := it.Entry()
			out = append(out, kv.Entry{
				Key:   append([]byte(nil), e.Key...),
				Value: append([]byte(nil), e.Value...),
				Seq:   e.Seq,
				Kind:  e.Kind,
			})
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
	}
	return out
}

func makeRuns(nRuns, perRun int) ([][]kv.Entry, map[string]kv.Entry) {
	model := map[string]kv.Entry{}
	var runs [][]kv.Entry
	seq := uint64(1)
	for r := 0; r < nRuns; r++ {
		var run []kv.Entry
		for i := 0; i < perRun; i++ {
			k := fmt.Sprintf("key-%04d", (i*7+r*13)%300)
			kind := kv.KindSet
			if (i+r)%11 == 0 {
				kind = kv.KindDelete
			}
			e := kv.Entry{Key: []byte(k), Value: []byte(fmt.Sprint(seq)), Seq: seq, Kind: kind}
			seq++
			run = append(run, e)
			if old, ok := model[k]; !ok || e.Seq > old.Seq {
				model[k] = e
			}
		}
		sort.Slice(run, func(i, j int) bool { return kv.Compare(run[i], run[j]) < 0 })
		runs = append(runs, run)
	}
	return runs, model
}

func TestRunMergesAndDedups(t *testing.T) {
	for _, mode := range []sched.Mode{sched.ModeThread, sched.ModeCoroutine, sched.ModePMBlade} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			runs, model := makeRuns(4, 500)
			var sources []kv.Iterator
			for _, r := range runs {
				it := kv.NewSliceIterator(r)
				it.SeekToFirst()
				sources = append(sources, it)
			}
			dev := ssd.New(ssd.FastProfile)
			tables := runOne(t, mode, sources, Params{
				Dev:          dev,
				Cause:        device.CauseMajor,
				BreakOnWrite: mode != sched.ModePMBlade,
			})
			got := entriesOf(t, tables)
			if len(got) != len(model) {
				t.Fatalf("%d entries out, want %d (one per key)", len(got), len(model))
			}
			for _, e := range got {
				want := model[string(e.Key)]
				if e.Seq != want.Seq || e.Kind != want.Kind {
					t.Fatalf("key %q: got seq %d kind %v, want %d %v",
						e.Key, e.Seq, e.Kind, want.Seq, want.Kind)
				}
			}
			// Output must be sorted.
			for i := 1; i < len(got); i++ {
				if bytes.Compare(got[i-1].Key, got[i].Key) >= 0 {
					t.Fatal("output not sorted")
				}
			}
		})
	}
}

func TestRunDropsTombstones(t *testing.T) {
	runs, model := makeRuns(3, 300)
	var sources []kv.Iterator
	for _, r := range runs {
		it := kv.NewSliceIterator(r)
		it.SeekToFirst()
		sources = append(sources, it)
	}
	dev := ssd.New(ssd.FastProfile)
	tables := runOne(t, sched.ModePMBlade, sources, Params{
		Dev:            dev,
		Cause:          device.CauseMajor,
		DropTombstones: true,
	})
	got := entriesOf(t, tables)
	wantLive := 0
	for _, e := range model {
		if e.Kind == kv.KindSet {
			wantLive++
		}
	}
	if len(got) != wantLive {
		t.Fatalf("%d live entries, want %d", len(got), wantLive)
	}
	for _, e := range got {
		if e.Kind == kv.KindDelete {
			t.Fatal("tombstone leaked to bottom level")
		}
	}
}

func TestRunSplitsOutputTables(t *testing.T) {
	var run []kv.Entry
	for i := 0; i < 3000; i++ {
		run = append(run, kv.Entry{
			Key:   []byte(fmt.Sprintf("key-%05d", i)),
			Value: bytes.Repeat([]byte("v"), 100),
			Seq:   uint64(i + 1),
		})
	}
	it := kv.NewSliceIterator(run)
	it.SeekToFirst()
	dev := ssd.New(ssd.FastProfile)
	tables := runOne(t, sched.ModeThread, []kv.Iterator{it}, Params{
		Dev:              dev,
		Cause:            device.CauseMajor,
		TargetTableBytes: 64 << 10,
		BreakOnWrite:     true,
	})
	if len(tables) < 2 {
		t.Fatalf("expected multiple output tables, got %d", len(tables))
	}
	for i := 1; i < len(tables); i++ {
		if bytes.Compare(tables[i-1].Largest(), tables[i].Smallest()) >= 0 {
			t.Fatal("output tables overlap")
		}
	}
	if got := entriesOf(t, tables); len(got) != 3000 {
		t.Fatalf("lost entries: %d", len(got))
	}
}

func TestRunRespectsUpperBound(t *testing.T) {
	var run []kv.Entry
	for i := 0; i < 100; i++ {
		run = append(run, kv.Entry{Key: []byte(fmt.Sprintf("key-%03d", i)), Seq: uint64(i + 1)})
	}
	it := kv.NewSliceIterator(run)
	it.SeekToFirst()
	dev := ssd.New(ssd.FastProfile)
	tables := runOne(t, sched.ModeThread, []kv.Iterator{it}, Params{
		Dev:   dev,
		Cause: device.CauseMajor,
		Hi:    []byte("key-050"),
	})
	got := entriesOf(t, tables)
	if len(got) != 50 {
		t.Fatalf("%d entries, want 50 (bounded)", len(got))
	}
	if string(got[len(got)-1].Key) != "key-049" {
		t.Fatalf("last key %q", got[len(got)-1].Key)
	}
}

func TestSplitRange(t *testing.T) {
	var bounds [][]byte
	for i := 0; i < 16; i++ {
		bounds = append(bounds, []byte(fmt.Sprintf("key-%02d", i)))
	}
	splits := SplitRange(bounds, 4)
	if len(splits) != 3 {
		t.Fatalf("splits = %d want 3", len(splits))
	}
	for i := 1; i < len(splits); i++ {
		if bytes.Compare(splits[i-1], splits[i]) >= 0 {
			t.Fatal("splits not strictly increasing")
		}
	}
	// Degenerate cases.
	if SplitRange(nil, 4) != nil {
		t.Fatal("no boundaries → no splits")
	}
	if SplitRange(bounds, 1) != nil {
		t.Fatal("n=1 → no splits")
	}
	one := [][]byte{[]byte("a")}
	if SplitRange(one, 4) != nil {
		t.Fatal("one boundary → no splits")
	}
}

func TestParallelSubtasksProduceDisjointRuns(t *testing.T) {
	// Split one compaction into 4 range subtasks, run them as parallel tasks,
	// verify the concatenation equals the full merge.
	runs, model := makeRuns(4, 800)
	dev := ssd.New(ssd.FastProfile)
	var bounds [][]byte
	for i := 0; i < 300; i += 25 {
		bounds = append(bounds, []byte(fmt.Sprintf("key-%04d", i)))
	}
	pool := sched.NewPool(sched.ModePMBlade, 2, 4, dev)
	ranges := 0
	subtask := func(ctx *sched.Ctx, lo, hi []byte) ([]*sstable.Table, error) {
		var sources []kv.Iterator
		for _, r := range runs {
			it := kv.NewSliceIterator(r)
			if lo == nil {
				it.SeekToFirst()
			} else {
				it.SeekGE(lo)
			}
			sources = append(sources, it)
		}
		return Run(ctx, sources, Params{Dev: dev, Cause: device.CauseMajor, Hi: hi})
	}
	var mu sync.Mutex
	tables, err := RunRanges(pool, bounds, 4, func(ctx *sched.Ctx, lo, hi []byte) ([]*sstable.Table, error) {
		mu.Lock()
		ranges++
		mu.Unlock()
		return subtask(ctx, lo, hi)
	})
	if err != nil {
		t.Fatal(err)
	}
	if ranges != 4 {
		t.Fatalf("%d range subtasks, want 4", ranges)
	}
	all := entriesOf(t, tables)
	if len(all) != len(model) {
		t.Fatalf("%d entries, want %d", len(all), len(model))
	}
	for i := 1; i < len(all); i++ {
		if bytes.Compare(all[i-1].Key, all[i].Key) >= 0 {
			t.Fatal("concatenated subtask outputs not globally sorted")
		}
	}

	// One failed range fails the whole compaction, and the tables its
	// siblings finished leave the device with it.
	used := dev.UsedBytes()
	boom := errors.New("boom")
	tables, err = RunRanges(pool, bounds, 4, func(ctx *sched.Ctx, lo, hi []byte) ([]*sstable.Table, error) {
		if lo != nil && hi != nil && bytes.Equal(lo, []byte("key-0150")) {
			return nil, boom
		}
		return subtask(ctx, lo, hi)
	})
	if !errors.Is(err, boom) || tables != nil {
		t.Fatalf("RunRanges = %d tables, %v; want none and the subtask's error", len(tables), err)
	}
	if got := dev.UsedBytes(); got != used {
		t.Fatalf("failed compaction left %d bytes of sibling output on the device", got-used)
	}
}
