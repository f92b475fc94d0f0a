package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"pmblade/internal/device"
	"pmblade/internal/pmem"
	"pmblade/internal/pmtable"
	"pmblade/internal/sched"
	"pmblade/internal/ssd"
	"pmblade/internal/wal"
)

// fastConfig returns a config with zero-latency devices and small budgets so
// tests exercise flush/compaction paths quickly.
func fastConfig() Config {
	return Config{
		PMCapacity:         32 << 20,
		PMProfile:          pmem.FastProfile,
		SSDProfile:         ssd.FastProfile,
		MemtableBytes:      64 << 10,
		Level0OnPM:         true,
		PMTableFormat:      pmtable.FormatPrefix,
		L0TableBytes:       256 << 10,
		SSTableBytes:       256 << 10,
		InternalCompaction: true,
		CostBased:          true,
		SchedMode:          sched.ModePMBlade,
		Workers:            2,
		QMax:               4,
	}
}

func allModeConfigs() map[string]Config {
	pmblade := fastConfig()

	pmbladePM := fastConfig()
	pmbladePM.InternalCompaction = false
	pmbladePM.CostBased = false
	pmbladePM.L0TriggerTables = 8

	pmbladeSSD := fastConfig()
	pmbladeSSD.Level0OnPM = false
	pmbladeSSD.InternalCompaction = false
	pmbladeSSD.CostBased = false
	pmbladeSSD.L0TriggerTables = 4

	rocks := fastConfig()
	rocks.Level0OnPM = false
	rocks.InternalCompaction = false
	rocks.CostBased = false
	rocks.L1TargetBytes = 1 << 20
	rocks.SchedMode = sched.ModeThread

	return map[string]Config{
		"pmblade":     pmblade,
		"pmblade-pm":  pmbladePM,
		"pmblade-ssd": pmbladeSSD,
		"rocksdb":     rocks,
	}
}

func TestPutGetAcrossFlushesAllModes(t *testing.T) {
	for name, cfg := range allModeConfigs() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			const n = 3000
			val := bytes.Repeat([]byte("v"), 100)
			for i := 0; i < n; i++ {
				if err := db.Put([]byte(fmt.Sprintf("key-%06d", i)), val); err != nil {
					t.Fatal(err)
				}
			}
			if db.Metrics().FlushCount.Load() == 0 {
				t.Fatal("expected at least one flush")
			}
			// Every key readable.
			for i := 0; i < n; i += 111 {
				k := []byte(fmt.Sprintf("key-%06d", i))
				got, ok, err := db.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				if !ok || !bytes.Equal(got, val) {
					t.Fatalf("Get(%s) = %v %v", k, len(got), ok)
				}
			}
			if _, ok, _ := db.Get([]byte("absent")); ok {
				t.Fatal("absent key found")
			}
		})
	}
}

func TestUpdatesShadowOldValues(t *testing.T) {
	for name, cfg := range allModeConfigs() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			// Write 3 generations of the same keys with flushes between.
			for gen := 0; gen < 3; gen++ {
				for i := 0; i < 500; i++ {
					k := []byte(fmt.Sprintf("key-%04d", i))
					v := []byte(fmt.Sprintf("gen-%d-%d", gen, i))
					if err := db.Put(k, v); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.FlushAll(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 500; i += 37 {
				k := []byte(fmt.Sprintf("key-%04d", i))
				got, ok, err := db.Get(k)
				if err != nil || !ok {
					t.Fatalf("Get(%s): %v %v", k, ok, err)
				}
				want := fmt.Sprintf("gen-2-%d", i)
				if string(got) != want {
					t.Fatalf("Get(%s) = %q want %q", k, got, want)
				}
			}
		})
	}
}

func TestDeleteHidesAcrossTiers(t *testing.T) {
	for name, cfg := range allModeConfigs() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := db.Put([]byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := db.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if err := db.Delete([]byte("k")); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := db.Get([]byte("k")); ok {
				t.Fatal("deleted key visible (tombstone in memtable)")
			}
			if err := db.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := db.Get([]byte("k")); ok {
				t.Fatal("deleted key visible after flush")
			}
			if err := db.MajorCompactAll(); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := db.Get([]byte("k")); ok {
				t.Fatal("deleted key resurrected by major compaction")
			}
		})
	}
}

func TestScan(t *testing.T) {
	for name, cfg := range allModeConfigs() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for i := 0; i < 1000; i++ {
				if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprint(i))); err != nil {
					t.Fatal(err)
				}
			}
			db.FlushAll()
			// Overwrite a stripe so the scan must pick newest versions.
			for i := 100; i < 200; i++ {
				db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("new"))
			}
			// Delete a stripe.
			for i := 150; i < 160; i++ {
				db.Delete([]byte(fmt.Sprintf("key-%04d", i)))
			}
			res, err := db.Scan([]byte("key-0100"), []byte("key-0200"), 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 90 {
				t.Fatalf("scan returned %d, want 90 (100 minus 10 deleted)", len(res))
			}
			for _, r := range res {
				if string(r.Value) != "new" {
					t.Fatalf("scan returned stale value %q for %q", r.Value, r.Key)
				}
			}
			// Limit.
			res, _ = db.Scan([]byte("key-0000"), nil, 7)
			if len(res) != 7 {
				t.Fatalf("limit scan = %d", len(res))
			}
			// Ordering.
			res, _ = db.Scan(nil, nil, 0)
			for i := 1; i < len(res); i++ {
				if bytes.Compare(res[i-1].Key, res[i].Key) >= 0 {
					t.Fatal("scan out of order")
				}
			}
		})
	}
}

func TestPartitionedEngineRoutesAndScans(t *testing.T) {
	cfg := fastConfig()
	cfg.PartitionBoundaries = [][]byte{[]byte("key-0250"), []byte("key-0500"), []byte("key-0750")}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.PartitionCount() != 4 {
		t.Fatalf("partitions = %d", db.PartitionCount())
	}
	for i := 0; i < 1000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i += 83 {
		k := []byte(fmt.Sprintf("key-%04d", i))
		got, ok, _ := db.Get(k)
		if !ok || string(got) != fmt.Sprint(i) {
			t.Fatalf("Get(%s) = %q %v", k, got, ok)
		}
	}
	// Cross-partition scan.
	res, err := db.Scan([]byte("key-0200"), []byte("key-0800"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 600 {
		t.Fatalf("cross-partition scan = %d want 600", len(res))
	}
	for i := 1; i < len(res); i++ {
		if bytes.Compare(res[i-1].Key, res[i].Key) >= 0 {
			t.Fatal("cross-partition scan out of order")
		}
	}
}

func TestInternalCompactionTriggersOnThreshold(t *testing.T) {
	cfg := fastConfig()
	cfg.CostBased = false // threshold mode but with internal compaction
	cfg.InternalCompaction = true
	cfg.L0TriggerTables = 4
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("v"), 256)
	for i := 0; i < 4000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%05d", i%500)), val)
	}
	if db.Metrics().InternalCount.Load() == 0 {
		t.Fatal("internal compaction never triggered")
	}
}

func TestMajorCompactionMovesDataToSSD(t *testing.T) {
	cfg := fastConfig()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("v"), 128)
	for i := 0; i < 2000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%05d", i)), val)
	}
	db.FlushAll()
	if err := db.MajorCompactAll(); err != nil {
		t.Fatal(err)
	}
	if db.PMUsed() != wal.TailBytes {
		t.Fatalf("PM holds %d bytes after major compaction, want only the %d-byte log tail", db.PMUsed(), wal.TailBytes)
	}
	if db.ssd.Stats().WriteBytes(device.CauseMajor) == 0 {
		t.Fatal("no major-compaction bytes on SSD")
	}
	// Data still readable from SSD.
	got, ok, _ := db.Get([]byte("key-00042"))
	if !ok || !bytes.Equal(got, val) {
		t.Fatal("data lost after major compaction")
	}
	if db.Metrics().ReadsBy(TierSSD) == 0 {
		t.Fatal("read should have been served by SSD tier")
	}
}

// TestMajorCompactAllLeavesOnlyTheBottom: in every layout a full compaction
// merges PM level-0, SSD level 0 and every level above the bottom into the
// bottom level, and what it leaves reads like the oracle.
func TestMajorCompactAllLeavesOnlyTheBottom(t *testing.T) {
	for name, cfg := range allModeConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.SyncFlush = true
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			rng := rand.New(rand.NewSource(5))
			want := map[string]string{}
			for i := 0; i < 15000; i++ {
				k := fmt.Sprintf("key-%05d", rng.Intn(5000))
				if rng.Intn(10) == 0 {
					if err := db.Delete([]byte(k)); err != nil {
						t.Fatal(err)
					}
					delete(want, k)
					continue
				}
				v := fmt.Sprintf("%s-%d-%0300d", k, i, 0)
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				want[k] = v
			}
			if err := db.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if cfg.L1TargetBytes > 0 && db.partitions[0].tree.Levels() < 2 {
				t.Fatal("setup: the workload grew no level below level 1")
			}
			if err := db.MajorCompactAll(); err != nil {
				t.Fatal(err)
			}
			for _, p := range db.partitions {
				s := p.state.Load()
				if len(s.pmTables())+len(s.ssdL0) != 0 {
					t.Fatalf("partition %d: %d PM and %d SSD level-0 tables after the full compaction",
						p.id, len(s.pmTables()), len(s.ssdL0))
				}
				for l, run := range s.runs {
					if bottom := l == len(s.runs)-1; bottom != (len(run) > 0) {
						t.Fatalf("partition %d: level %d of %d holds %d tables; only the bottom may, and must", p.id, l+1, len(s.runs), len(run))
					}
				}
			}
			checkAll(t, db, want)
			res, err := db.Scan(nil, nil, 0)
			if err != nil || len(res) != len(want) {
				t.Fatalf("Scan = %d entries, err %v; want %d", len(res), err, len(want))
			}
			for _, r := range res {
				if want[string(r.Key)] != string(r.Value) {
					t.Fatalf("Scan: %s = %q, want %q", r.Key, r.Value, want[string(r.Key)])
				}
			}
			checkTierOrder(t, db, false)
		})
	}
}

func TestPMOutOfSpaceForcesEviction(t *testing.T) {
	cfg := fastConfig()
	cfg.PMCapacity = 1 << 20 // tiny PM
	cfg.MemtableBytes = 64 << 10
	cfg.Cost.TauM = 1 << 40 // never trigger by threshold: force the stall path
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("v"), 512)
	for i := 0; i < 6000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%06d", i)), val); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if db.Metrics().MajorCount.Load() == 0 {
		t.Fatal("PM exhaustion should have forced major compaction")
	}
	got, ok, _ := db.Get([]byte("key-000001"))
	if !ok || !bytes.Equal(got, val) {
		t.Fatal("data lost across forced eviction")
	}
}

func TestRocksDBModeCreatesLevels(t *testing.T) {
	cfg := allModeConfigs()["rocksdb"]
	cfg.MemtableBytes = 32 << 10
	cfg.L1TargetBytes = 128 << 10
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("v"), 200)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%06d", rng.Intn(4000))), val)
	}
	db.FlushAll()
	p := db.partitions[0]
	if n := len(p.state.Load().runs); n < 2 {
		t.Fatalf("expected >=2 levels, got %d", n)
	}
	// Leveled compactions happened and data is still correct.
	if db.ssd.Stats().WriteBytes(device.CauseLeveled) == 0 {
		t.Fatal("no leveled compaction traffic")
	}
}

func TestWriteAmpAccounting(t *testing.T) {
	cfg := fastConfig()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < 2000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%05d", i%200)), val) // updates
	}
	db.FlushAll()
	if err := db.InternalCompactAll(); err != nil {
		t.Fatal(err)
	}
	// Build opens the image it wrote under its own cause: write traffic does
	// not show up as client reads of the PM device.
	if n := db.PMDevice().Stats().ReadOps(device.CauseClientRead); n != 0 {
		t.Fatalf("flushes and internal compaction counted %d client-read ops on PM", n)
	}
	wa := db.WriteAmp()
	if wa.UserBytes == 0 || wa.PMBytes == 0 {
		t.Fatalf("write-amp counters empty: %+v", wa)
	}
	if wa.Factor() <= 0 {
		t.Fatal("factor should be positive")
	}
	if wa.ByCause["flush"] == 0 {
		t.Fatal("flush bytes not attributed")
	}
}

func TestBatchAtomicSeqAssignment(t *testing.T) {
	db, err := Open(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var b Batch
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	b.Delete([]byte("a"))
	if b.Len() != 3 {
		t.Fatalf("batch len %d", b.Len())
	}
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Get([]byte("a")); ok {
		t.Fatal("later delete in batch must win")
	}
	if v, ok, _ := db.Get([]byte("b")); !ok || string(v) != "2" {
		t.Fatal("batch put lost")
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("reset failed")
	}
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
}

func TestClosedDBRejectsOps(t *testing.T) {
	db, _ := Open(fastConfig())
	db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != ErrClosed {
		t.Fatalf("Put after close = %v", err)
	}
	if _, _, err := db.Get([]byte("k")); err != ErrClosed {
		t.Fatalf("Get after close = %v", err)
	}
	if _, err := db.Scan(nil, nil, 0); err != ErrClosed {
		t.Fatalf("Scan after close = %v", err)
	}
	if err := db.Close(); err != ErrClosed {
		t.Fatalf("double close = %v", err)
	}
}

func TestTierAccounting(t *testing.T) {
	db, _ := Open(fastConfig())
	defer db.Close()
	db.Put([]byte("hot"), []byte("v"))
	db.Get([]byte("hot")) // memtable hit
	if db.Metrics().ReadsBy(TierMemtable) != 1 {
		t.Fatal("memtable hit not counted")
	}
	db.FlushAll()
	db.Get([]byte("hot")) // PM hit
	if db.Metrics().ReadsBy(TierPM) != 1 {
		t.Fatal("PM hit not counted")
	}
	db.MajorCompactAll()
	db.Get([]byte("hot")) // SSD hit
	if db.Metrics().ReadsBy(TierSSD) != 1 {
		t.Fatal("SSD hit not counted")
	}
	if r := db.Metrics().PMHitRatio(); r != 0.5 {
		t.Fatalf("PM hit ratio = %v want 0.5", r)
	}
}

func TestPartitionRoutingBoundaries(t *testing.T) {
	cfg := fastConfig()
	cfg.PartitionBoundaries = [][]byte{[]byte("m")}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// A key equal to the boundary belongs to the second partition (bounds
	// are [lo, hi)); keys straddling it must not collide.
	if p := db.route([]byte("m")); p.id != 1 {
		t.Fatalf("boundary key routed to partition %d, want 1", p.id)
	}
	if p := db.route([]byte("lzzzz")); p.id != 0 {
		t.Fatalf("key below boundary routed to partition %d, want 0", p.id)
	}
	if p := db.route([]byte("")); p.id != 0 {
		t.Fatalf("empty key routed to partition %d, want 0", p.id)
	}
	if p := db.route([]byte("\xff\xff")); p.id != 1 {
		t.Fatalf("max key routed to partition %d, want 1", p.id)
	}
	// Writes and reads across the boundary stay isolated and correct.
	db.Put([]byte("l"), []byte("left"))
	db.Put([]byte("m"), []byte("right"))
	if v, ok, _ := db.Get([]byte("l")); !ok || string(v) != "left" {
		t.Fatal("left key lost")
	}
	if v, ok, _ := db.Get([]byte("m")); !ok || string(v) != "right" {
		t.Fatal("right key lost")
	}
	// Cross-boundary scan merges both partitions in order.
	res, err := db.Scan(nil, nil, 0)
	if err != nil || len(res) != 2 {
		t.Fatalf("scan: %d %v", len(res), err)
	}
	if string(res[0].Key) != "l" || string(res[1].Key) != "m" {
		t.Fatalf("scan order: %q %q", res[0].Key, res[1].Key)
	}
}

func TestEmptyAndLargeValues(t *testing.T) {
	db, err := Open(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Empty value is legal and distinct from absence.
	if err := db.Put([]byte("empty"), nil); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get([]byte("empty"))
	if err != nil || !ok || len(v) != 0 {
		t.Fatalf("empty value: %v %v %v", v, ok, err)
	}
	// A value larger than the memtable budget still round-trips (it forces
	// an immediate flush).
	big := bytes.Repeat([]byte("B"), int(db.cfg.MemtableBytes)+1024)
	if err := db.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	v, ok, err = db.Get([]byte("big"))
	if err != nil || !ok || !bytes.Equal(v, big) {
		t.Fatalf("big value lost: len=%d ok=%v err=%v", len(v), ok, err)
	}
	db.FlushAll()
	v, ok, _ = db.Get([]byte("big"))
	if !ok || !bytes.Equal(v, big) {
		t.Fatal("big value lost after flush")
	}
}

func TestStreamingIterator(t *testing.T) {
	db, err := Open(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 1000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprint(i)))
	}
	db.FlushAll()
	for i := 500; i < 600; i++ {
		db.Delete([]byte(fmt.Sprintf("key-%04d", i)))
	}

	it, err := db.NewIterator([]byte("key-0400"), []byte("key-0700"))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	count := 0
	var prev []byte
	for ; it.Valid(); it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatal("iterator out of order")
		}
		k := string(it.Key())
		if k >= "key-0500" && k < "key-0600" {
			t.Fatalf("deleted key %s visible", k)
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if count != 200 { // 300 in range minus 100 deleted
		t.Fatalf("iterated %d entries, want 200", count)
	}
}

func TestIteratorSnapshotIsolation(t *testing.T) {
	db, err := Open(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Put([]byte("a"), []byte("v1"))
	it, err := db.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	// Writes after iterator creation are invisible to it.
	db.Put([]byte("b"), []byte("v2"))
	db.Put([]byte("a"), []byte("v1-new"))
	count := 0
	for ; it.Valid(); it.Next() {
		count++
		if string(it.Key()) == "a" && string(it.Value()) != "v1" {
			t.Fatalf("iterator saw post-snapshot update: %s", it.Value())
		}
		if string(it.Key()) == "b" {
			t.Fatal("iterator saw post-snapshot insert")
		}
	}
	if count != 1 {
		t.Fatalf("iterated %d entries, want 1", count)
	}
}

func TestIteratorCrossPartition(t *testing.T) {
	cfg := fastConfig()
	cfg.PartitionBoundaries = [][]byte{[]byte("key-0300"), []byte("key-0600")}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 900; i++ {
		db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("v"))
	}
	it, err := db.NewIterator([]byte("key-0250"), []byte("key-0650"))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	count := 0
	for ; it.Valid(); it.Next() {
		count++
	}
	if count != 400 {
		t.Fatalf("cross-partition iteration = %d, want 400", count)
	}
}

func TestIteratorCloseReleasesTables(t *testing.T) {
	db, err := Open(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 2000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%05d", i)), bytes.Repeat([]byte("v"), 100))
	}
	db.FlushAll()
	db.MajorCompactAll() // data now on SSD
	it, err := db.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Compact while the iterator is open: old tables must stay readable.
	for i := 0; i < 2000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("new"))
	}
	db.FlushAll()
	db.MajorCompactAll()
	count := 0
	for ; it.Valid(); it.Next() {
		count++
	}
	if count != 2000 {
		t.Fatalf("iterator lost entries during concurrent compaction: %d", count)
	}
	it.Close()
	it.Close() // double close is safe
	if it.Valid() {
		t.Fatal("closed iterator must be invalid")
	}
}
