package engine

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmblade/internal/device"
	"pmblade/internal/fault"
	"pmblade/internal/ssd"
)

// TestMultiGetMatchesSequentialGets checks the defining contract in every
// engine mode: a MultiGet batch returns positionally the same results as
// sequential Gets — across memtable, level-0, and SSD tiers, with updates,
// tombstones, absent keys, and duplicates in the batch. The batch is read
// twice, before and after a Scan has built the partition's range view: point
// batches do not go through the view, so it must change nothing.
func TestMultiGetMatchesSequentialGets(t *testing.T) {
	for name, cfg := range allModeConfigs() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			const n = 2000
			for i := 0; i < n; i++ {
				if err := db.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte(fmt.Sprintf("v1-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if err := db.MajorCompactAll(); err != nil {
				t.Fatal(err)
			}
			// Updates and deletes land in fresher tiers than the base data.
			for i := 0; i < n; i += 3 {
				if err := db.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte(fmt.Sprintf("v2-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i < n; i += 7 {
				if err := db.Delete([]byte(fmt.Sprintf("key-%06d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.FlushAll(); err != nil {
				t.Fatal(err)
			}
			for i := 2; i < n; i += 11 {
				if err := db.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte(fmt.Sprintf("v3-%d", i))); err != nil {
					t.Fatal(err)
				}
			}

			var keys [][]byte
			for i := 0; i < n; i += 13 {
				keys = append(keys, []byte(fmt.Sprintf("key-%06d", i)))
			}
			keys = append(keys, []byte("absent-low"), []byte("zzz-absent-high"))
			keys = append(keys, keys[0], keys[1]) // duplicates within the batch

			for round := 1; round <= 2; round++ {
				res, err := db.MultiGet(keys)
				if err != nil {
					t.Fatal(err)
				}
				if len(res) != len(keys) {
					t.Fatalf("MultiGet returned %d results for %d keys", len(res), len(keys))
				}
				for i, k := range keys {
					want, wantOK, gerr := db.Get(k)
					if gerr != nil {
						t.Fatal(gerr)
					}
					if res[i].Found != wantOK || !bytes.Equal(res[i].Value, want) {
						t.Fatalf("MultiGet[%d](%s) = (%q, %v), Get = (%q, %v)",
							i, k, res[i].Value, res[i].Found, want, wantOK)
					}
				}
				if db.Metrics().MultiGetOps.Load() != int64(round) {
					t.Fatalf("MultiGetOps = %d, want %d", db.Metrics().MultiGetOps.Load(), round)
				}
				if db.Metrics().MultiGetKeys.Load() != int64(round*len(keys)) {
					t.Fatalf("MultiGetKeys = %d, want %d", db.Metrics().MultiGetKeys.Load(), round*len(keys))
				}
				scanAll(t, db)
				if db.Metrics().RangeViewBuilds.Load() == 0 {
					t.Fatal("the scan built no range view: round 2 would repeat round 1")
				}
			}
		})
	}
}

// TestMultiGetAcrossPartitions routes one batch over several partitions and
// checks the positional mapping survives the parallel fan-out.
func TestMultiGetAcrossPartitions(t *testing.T) {
	cfg := fastConfig()
	cfg.PartitionBoundaries = [][]byte{[]byte("key-0250"), []byte("key-0500"), []byte("key-0750")}
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
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Interleave partitions so adjacent batch positions hit different groups.
	var keys [][]byte
	var want []string
	for i := 0; i < 250; i += 17 {
		for p := 0; p < 4; p++ {
			keys = append(keys, []byte(fmt.Sprintf("key-%04d", p*250+i)))
			want = append(want, fmt.Sprint(p*250+i))
		}
	}
	res, err := db.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !res[i].Found || string(res[i].Value) != want[i] {
			t.Fatalf("MultiGet[%d](%s) = (%q, %v), want %q", i, keys[i], res[i].Value, res[i].Found, want[i])
		}
	}
}

// TestMultiGetConcurrentWithInstalls is the race-mode test of the overlapped
// reads: batches whose SSD block reads are in flight together (a device that
// charges read time, no block cache) run beside a writer that keeps flushing
// and major-compacting, so tables are replaced and their files deleted while
// reads are outstanding. The read state's table references must cover every
// in-flight read: no key may fail, vanish, or carry a value never written.
func TestMultiGetConcurrentWithInstalls(t *testing.T) {
	cfg := fastConfig()
	cfg.SSDProfile = ssd.Profile{ReadLatency: 20 * time.Microsecond, Parallelism: 8}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const nKeys = 200
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
	pad := strings.Repeat(".", 500) // ~7 keys to a block: a batch needs some 30 blocks
	for i := 0; i < nKeys; i++ {
		if err := db.Put(key(i), []byte("init"+pad)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var majors atomic.Int32
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; ; r++ {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < nKeys; i += 3 {
				_ = db.Put(key(i), []byte(fmt.Sprintf("round-%d%s", r, pad)))
			}
			_ = db.FlushAll()
			if r%2 == 1 {
				_ = db.MajorCompactAll()
				majors.Add(1)
			}
		}
	}()
	var keys [][]byte
	for i := 0; i < nKeys; i++ {
		keys = append(keys, key(i))
	}
	for r := 0; r < 30 || majors.Load() < 5; r++ {
		res, merr := db.MultiGet(keys)
		if merr != nil {
			t.Fatal(merr)
		}
		for i, gr := range res {
			if gr.Err != nil || !gr.Found {
				t.Fatalf("key %s: found=%v err=%v", keys[i], gr.Found, gr.Err)
			}
			v := strings.TrimSuffix(string(gr.Value), pad)
			if v != "init" && !strings.HasPrefix(v, "round-") {
				t.Fatalf("key %s = %q: never written", keys[i], v)
			}
		}
	}
	close(stop)
	wg.Wait()
	if db.Metrics().ReadsBy(TierSSD) == 0 {
		t.Fatal("no key was served from SSD: the test did not exercise the batch fetch")
	}
}

func TestMultiGetEmptyAndClosed(t *testing.T) {
	db, err := Open(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.MultiGet(nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("MultiGet(nil) = %v, %v", res, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.MultiGet([][]byte{[]byte("k")}); err != ErrClosed {
		t.Fatalf("MultiGet on closed db = %v, want ErrClosed", err)
	}
}

// TestMultiGetTombstoneNotFound pins the tombstone contract: a deleted key is
// Found=false with a nil value, exactly like Get.
func TestMultiGetTombstoneNotFound(t *testing.T) {
	db, err := Open(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete([]byte("a")); err != nil {
		t.Fatal(err)
	}
	res, err := db.MultiGet([][]byte{[]byte("a")})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Found || res[0].Value != nil {
		t.Fatalf("deleted key = %+v, want not found", res[0])
	}
}

// TestMultiGetCoalescedReadsCounted: the coalescing counter counts on every
// batch — also once a Scan has built the partition's range view, which used
// to take point batches down an uncounted path — and the device sees one read
// per distinct span. With 1000-byte values a block holds five records, so
// records 0 and 1 of a table share block 0 and records 10 and 15 sit in the
// file-adjacent blocks 2 and 3: four keys, two reads, two saved.
func TestMultiGetCoalescedReadsCounted(t *testing.T) {
	db, err := Open(fastConfig()) // one partition, no block cache: every block read reaches the device
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("v"), 1000)
	for i := 0; i < 400; i++ {
		if err := db.Put(key6(i), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := db.MajorCompactAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Scan(nil, nil, 10); err != nil {
		t.Fatal(err)
	}
	s := db.partitions[0].state.Load()
	if s.view.Load() == nil {
		t.Fatal("the scan built no range view")
	}
	var first int
	if _, err := fmt.Sscanf(string(s.runs[0][0].Smallest()), "key-%d", &first); err != nil {
		t.Fatal(err)
	}
	keys := [][]byte{key6(first + 15), key6(first), key6(first + 10), key6(first + 1)}
	reads := db.SSDDevice().Stats().ReadOps(device.CauseClientRead)
	res, err := db.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil || !r.Found || !bytes.Equal(r.Value, val) {
			t.Fatalf("MultiGet(%s): found=%v err=%v", keys[i], r.Found, r.Err)
		}
	}
	if got := db.SSDDevice().Stats().ReadOps(device.CauseClientRead) - reads; got != 2 {
		t.Fatalf("device reads = %d, want 2 (block 0, and blocks 2-3 as one span)", got)
	}
	if got := db.Metrics().MultiGetCoalescedReads.Load(); got != 2 {
		t.Fatalf("MultiGetCoalescedReads = %d, want 2 (one shared block, one merged span)", got)
	}
}

// TestMultiGetRotFailsOnlyItsKeys: a 16-key batch over three partitions and
// more than three tables has its block reads in flight together when one of
// them fails its checksum. The whole batch is joined first; then only the
// corrupt table's partition is retried, against the live set without the
// table, at the same sequence. Keys the quarantined table may have held come
// back ErrUnavailable, every other key — of that partition too — with its
// value, and the top-level error stays nil.
func TestMultiGetRotFailsOnlyItsKeys(t *testing.T) {
	cfg := fastConfig()
	cfg.FaultInjector = fault.New(31)
	cfg.SSDProfile = ssd.Profile{ReadLatency: 20 * time.Microsecond, Parallelism: 8}
	cfg.SSTableBytes = 16 << 10 // about five tables to a partition
	cfg.PartitionBoundaries = [][]byte{key6(400), key6(800)}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	value := func(i int) []byte { return []byte(fmt.Sprintf("val-%06d%s", i, strings.Repeat(".", 190))) }
	for i := 0; i < 1200; i++ {
		if err := db.Put(key6(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := db.MajorCompactAll(); err != nil {
		t.Fatal(err)
	}
	run := db.partitions[1].state.Load().runs[0]
	if len(run) < 3 {
		t.Fatalf("partition 1 has %d tables, the test needs 3", len(run))
	}
	victim := run[1]
	var vs int
	if _, err := fmt.Sscanf(string(victim.Smallest()), "key-%d", &vs); err != nil {
		t.Fatal(err)
	}
	inVictim := func(k []byte) bool {
		return bytes.Compare(k, victim.Smallest()) >= 0 && bytes.Compare(k, victim.Largest()) <= 0
	}
	// One seeded byte of the victim's first block (blocks are 4 KiB).
	if _, err := db.SSDDevice().Rot(victim.File(), 0, 2000); err != nil {
		t.Fatal(err)
	}
	recs := []int{10, 100, 200, 300, 390, vs, vs + 30, 401, 430, 770, 799, 810, 900, 1000, 1100, 1190}
	keys := make([][]byte, len(recs))
	for i, r := range recs {
		keys[i] = key6(r)
	}
	for round := 0; round < 2; round++ { // the second batch meets the quarantine, not the rot
		res, err := db.MultiGet(keys)
		if err != nil {
			t.Fatalf("top-level error %v: must stay per key", err)
		}
		unavailable := 0
		for i, r := range res {
			switch {
			case inVictim(keys[i]):
				if !errors.Is(r.Err, ErrUnavailable) || r.Found || r.Value != nil {
					t.Fatalf("round %d: %s (in the corrupt table) = %+v, want ErrUnavailable", round, keys[i], r)
				}
				unavailable++
			case r.Err != nil || !r.Found || !bytes.Equal(r.Value, value(recs[i])):
				t.Fatalf("round %d: %s (outside the corrupt table) = found %v, err %v", round, keys[i], r.Found, r.Err)
			}
		}
		if unavailable != 2 {
			t.Fatalf("round %d: %d keys unavailable, want the 2 in the corrupt table", round, unavailable)
		}
	}
	recsQ := db.QuarantineRecords()
	if len(recsQ) != 1 || recsQ[0].Partition != 1 || recsQ[0].ID != uint64(victim.File()) {
		t.Fatalf("quarantine = %+v, want exactly the corrupt table of partition 1", recsQ)
	}
}
