package engine

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"pmblade/internal/kv"
	"pmblade/internal/ssd"
	"pmblade/internal/sstable"
	"pmblade/internal/wal"
)

// seqSpan is the range of sequences one tier of a read state holds.
type seqSpan struct {
	tier   string
	lo, hi uint64
}

// spanOf drains its into the span of sequences they hold together; ok is
// false for an empty tier.
func spanOf(t *testing.T, tier string, its ...kv.Iterator) (sp seqSpan, ok bool) {
	t.Helper()
	sp.tier = tier
	for _, it := range its {
		for it.SeekToFirst(); it.Valid(); it.Next() {
			seq := it.Entry().Seq
			if !ok || seq < sp.lo {
				sp.lo = seq
			}
			if !ok || seq > sp.hi {
				sp.hi = seq
			}
			ok = true
		}
		if err := it.Err(); err != nil {
			t.Fatalf("%s: %v", tier, err)
		}
	}
	return sp, ok
}

// checkTierOrder asserts the read-state invariant (state.go) on every
// partition of a quiescent db: newest tier first — memtable, immutables,
// unsorted level-0 tables, then the sorted PM run and (unless more than one
// SSD level holds tables: levels are ordered key by key only) the SSD run —
// the tiers hold disjoint, strictly descending sequence ranges, so the first
// tier that holds a key holds its newest version. replayed marks an engine
// fresh out of recovery: its memtable is the replayed log, which repeats
// whatever was flushed after the last checkpoint, so it may reach down into
// the tables' ranges but must still reach above all of them.
func checkTierOrder(t *testing.T, db *DB, replayed bool) {
	t.Helper()
	db.drainFlushes()
	for _, p := range db.partitions {
		s := p.acquire()
		var spans []seqSpan
		add := func(tier string, its ...kv.Iterator) {
			if sp, ok := spanOf(t, tier, its...); ok {
				spans = append(spans, sp)
			}
		}
		add("mem", s.mem.NewIterator())
		for i, m := range s.imm {
			add(fmt.Sprintf("imm[%d]", i), m.NewIterator())
		}
		for i, tbl := range s.pmUnsorted {
			add(fmt.Sprintf("pmUnsorted[%d]", i), tbl.NewIterator())
		}
		for i, tbl := range s.ssdL0 {
			add(fmt.Sprintf("ssdL0[%d]", i), tbl.NewScanIterator())
		}
		var sorted []kv.Iterator
		for _, tbl := range s.pmSorted {
			sorted = append(sorted, tbl.NewIterator())
		}
		add("pmSorted", sorted...)
		filled := slices.DeleteFunc(slices.Clone(s.runs), func(r []*sstable.Table) bool { return len(r) == 0 })
		if len(filled) <= 1 {
			var run []kv.Iterator
			for _, tbl := range slices.Concat(filled...) {
				run = append(run, tbl.NewScanIterator())
			}
			add("run", run...)
		}
		for i := 1; i < len(spans); i++ {
			newer, older := spans[i-1], spans[i]
			if replayed && newer.tier == "mem" {
				if newer.hi <= older.hi {
					t.Errorf("partition %d: replayed memtable ends at seq %d, below %s [%d, %d]",
						p.id, newer.hi, older.tier, older.lo, older.hi)
				}
				continue
			}
			if newer.lo <= older.hi {
				t.Errorf("partition %d: tier order is not sequence order: %s holds [%d, %d] above %s holding [%d, %d]",
					p.id, newer.tier, newer.lo, newer.hi, older.tier, older.lo, older.hi)
			}
		}
		s.release()
	}
}

// tierOrderConfig is one partition whose 2 KiB memtables rotate every few
// writes and whose flushed tables stay where the flush put them: no internal
// compaction, no eviction.
func tierOrderConfig() Config {
	cfg := fastConfig()
	cfg.MemtableBytes = 2 << 10
	cfg.InternalCompaction = false
	cfg.CostBased = false
	cfg.L0TriggerTables = 1 << 20
	return cfg
}

// writeConcurrently has writers goroutines put perWriter keys each, every key
// written by all of them, so versions of one key race for the same memtable.
func writeConcurrently(t *testing.T, db *DB, writers, perWriter int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := db.Put(key6(i), []byte(fmt.Sprintf("w%d-%06d", w, i))); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTierOrderIsSequenceOrder: eight writers against memtables that rotate
// every couple of dozen puts. After FlushAll the unsorted PM tables, newest first, must
// hold disjoint, strictly descending sequence ranges. When a writer could
// take its sequence before the log round-trip and insert into whichever
// memtable was active afterwards, they did not.
func TestTierOrderIsSequenceOrder(t *testing.T) {
	db, err := Open(tierOrderConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	writeConcurrently(t, db, 8, 150)
	checkTierOrder(t, db, false)
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if n := len(db.partitions[0].state.Load().pmUnsorted); n < 20 {
		t.Fatalf("only %d unsorted tables; the run rotated too rarely to show anything", n)
	}
	checkTierOrder(t, db, false)
}

// TestLogOrderIsSequenceOrder: the log of a multi-writer run replays in
// strictly ascending sequence order — record order is commit order — across
// the records destaged to the file and those still in the PM tail, or in the
// file alone without PM.
func TestLogOrderIsSequenceOrder(t *testing.T) {
	cfg := tierOrderConfig()
	cfg.MemtableBytes = 1 << 20
	for name, cfg := range logConfigs(cfg) {
		t.Run(name, func(t *testing.T) {
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			const perWriter = 300 // more than one tail's worth
			writeConcurrently(t, db, 8, perWriter)
			var b Batch
			for i := 0; i < 4; i++ {
				b.Put(key6(i), []byte("batch"))
			}
			if err := db.Apply(&b); err != nil {
				t.Fatal(err)
			}
			if db.ssd.Size(db.wal.File()) == 0 {
				t.Fatal("nothing reached the log file: the log does not span both devices")
			}
			var last uint64
			n, err := wal.ReplayLog(db.ssd, []ssd.FileID{db.wal.File()}, db.walTail, func(e kv.Entry) error {
				if e.Seq <= last {
					return fmt.Errorf("record with seq %d follows seq %d", e.Seq, last)
				}
				last = e.Seq
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := 8*perWriter + 4; n != want || last != uint64(want) {
				t.Fatalf("replayed %d entries up to seq %d, want %d of each", n, last, want)
			}
		})
	}
}

// TestTierOrderSurvivesCrash: the tables a multi-writer run left behind are
// still in sequence order after a power cut and RecoverCurrent, and the
// replayed log sits on top of them.
func TestTierOrderSurvivesCrash(t *testing.T) {
	cfg := tierOrderConfig()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	writeConcurrently(t, db, 8, 60)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writeConcurrently(t, db, 8, 60)
	db.drainFlushes()
	if _, err := db.SaveManifest(); err != nil {
		t.Fatal(err)
	}
	writeConcurrently(t, db, 4, 5)
	db.drainFlushes()

	re, err := RecoverCurrent(cfg, db.PMDevice().CrashImage(nil), db.SSDDevice().CrashImage(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(re.partitions[0].state.Load().pmUnsorted) == 0 || re.partitions[0].state.Load().mem.Empty() {
		t.Fatal("recovery found no tables or replayed nothing; the check would be vacuous")
	}
	checkTierOrder(t, re, true)
	for i := 0; i < 60; i++ {
		live, _, err := db.Get(key6(i))
		if err != nil {
			t.Fatal(err)
		}
		got, ok, err := re.Get(key6(i))
		if err != nil || !ok || string(got) != string(live) {
			t.Fatalf("key %d: recovered %q (%v, %v), the live engine serves %q", i, got, ok, err, live)
		}
	}
}
