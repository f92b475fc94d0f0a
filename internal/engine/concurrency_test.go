package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmblade/internal/pmem"
	"pmblade/internal/wal"
)

// TestConcurrentReadsDuringCompaction hammers Get/Scan from several
// goroutines while a writer drives flushes, internal compactions, and major
// compactions — the reference-counting and snapshotting regression test for
// the race Figure 7(b) originally exposed.
func TestConcurrentReadsDuringCompaction(t *testing.T) {
	for name, cfg := range allModeConfigs() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			const keyspace = 2000
			val := bytes.Repeat([]byte("v"), 200)
			// Seed so readers always find something.
			for i := 0; i < keyspace; i++ {
				if err := db.Put(key6(i), val); err != nil {
					t.Fatal(err)
				}
			}

			var stop atomic.Bool
			var wg sync.WaitGroup
			errs := make(chan error, 8)

			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for !stop.Load() {
						k := key6(rng.Intn(keyspace))
						if _, _, err := db.Get(k); err != nil {
							errs <- fmt.Errorf("get: %w", err)
							return
						}
						if rng.Intn(20) == 0 {
							if _, err := db.Scan(k, nil, 10); err != nil {
								errs <- fmt.Errorf("scan: %w", err)
								return
							}
						}
					}
				}(int64(r))
			}

			// Writer drives flushes and compactions.
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 6000; i++ {
				if err := db.Put(key6(rng.Intn(keyspace)), val); err != nil {
					t.Fatal(err)
				}
				if i%2000 == 1999 {
					if err := db.MajorCompactAll(); err != nil {
						t.Fatal(err)
					}
				}
			}
			stop.Store(true)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

func key6(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }

// TestReadYourWritesUnderLoad checks that a key written is immediately
// readable regardless of which tier its older versions live in.
func TestReadYourWritesUnderLoad(t *testing.T) {
	cfg := fastConfig()
	cfg.MemtableBytes = 16 << 10 // flush very often
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(5))
	latest := map[int]int{}
	for i := 0; i < 8000; i++ {
		k := rng.Intn(300)
		latest[k] = i
		if err := db.Put(key6(k), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
		if i%97 == 0 {
			probe := rng.Intn(300)
			want, exists := latest[probe]
			got, ok, err := db.Get(key6(probe))
			if err != nil {
				t.Fatal(err)
			}
			if exists != ok {
				t.Fatalf("op %d: key %d exists=%v got ok=%v", i, probe, exists, ok)
			}
			if ok && string(got) != fmt.Sprint(want) {
				t.Fatalf("op %d: key %d got %s want %d", i, probe, got, want)
			}
		}
	}
}

// TestScanSnapshotSeesNoTornBatch verifies scans never observe a partially
// hidden state: once a key is written, scans include its newest value.
func TestScanConsistencyAcrossTiers(t *testing.T) {
	cfg := fastConfig()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 500; i++ {
		db.Put(key6(i), []byte("v1"))
	}
	db.FlushAll()
	db.MajorCompactAll() // v1 on SSD
	for i := 0; i < 500; i += 2 {
		db.Put(key6(i), []byte("v2"))
	}
	db.FlushAll() // v2 in PM level-0

	res, err := db.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 500 {
		t.Fatalf("scan %d keys want 500", len(res))
	}
	for i, r := range res {
		want := "v1"
		if i%2 == 0 {
			want = "v2"
		}
		if string(r.Value) != want {
			t.Fatalf("key %d: got %s want %s", i, r.Value, want)
		}
	}
}

// TestWriteStallAccounting checks that forced evictions on PM exhaustion are
// recorded as write-stall time.
func TestWriteStallAccounting(t *testing.T) {
	cfg := fastConfig()
	cfg.PMCapacity = 1 << 20
	cfg.Cost.TauM = 1 << 40 // only the stall path may trigger majors
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("v"), 1024)
	for i := 0; i < 4000; i++ {
		if err := db.Put(key6(i), val); err != nil {
			t.Fatal(err)
		}
	}
	if db.Metrics().WriteStallNanos.Load() == 0 {
		t.Fatal("PM exhaustion should record write-stall time")
	}
}

// TestPMTooSmallForOneFlushFailsPut: the eviction loop's terminal case. A PM
// that cannot hold one flushed memtable even when empty never gains room by
// evicting, so the writer must get an error that says so — not spin.
func TestPMTooSmallForOneFlushFailsPut(t *testing.T) {
	for _, syncFlush := range []bool{true, false} {
		t.Run(fmt.Sprintf("SyncFlush=%v", syncFlush), func(t *testing.T) {
			cfg := fastConfig()
			cfg.SyncFlush = syncFlush
			cfg.PMCapacity = wal.TailBytes + 16<<10 // the log tail, and 16 KiB: MemtableBytes is 64 KiB
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			failed := make(chan error, 1)
			go func() {
				val := bytes.Repeat([]byte("v"), 1024)
				for i := 0; i < 4000; i++ {
					if err := db.Put(key6(i), val); err != nil {
						failed <- err
						return
					}
				}
				failed <- nil
			}()
			select {
			case err = <-failed:
			case <-time.After(time.Minute):
				t.Fatal("Put spins on a PM that can never hold its flush")
			}
			if !errors.Is(err, pmem.ErrOutOfSpace) {
				t.Fatalf("Put error = %v, want pmem.ErrOutOfSpace", err)
			}
			if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("PMCapacity %d", cfg.PMCapacity)) ||
				!regexp.MustCompile(`flush \d+-byte memtable`).MatchString(msg) {
				t.Fatalf("error does not name PMCapacity and the flush size: %v", err)
			}
		})
	}
}

// TestPartitionStatsDrive verifies the per-partition stat counters feed the
// cost model: reads bump n_r, repeat writes bump n_u, compaction resets.
func TestPartitionStatsLifecycle(t *testing.T) {
	db, err := Open(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p := db.partitions[0]
	db.Put([]byte("k"), []byte("v1"))
	db.Put([]byte("k"), []byte("v2")) // update
	db.Get([]byte("k"))
	if p.writes.Load() != 2 || p.updates.Load() != 1 || p.reads.Load() != 1 {
		t.Fatalf("stats w=%d u=%d r=%d, want 2/1/1",
			p.writes.Load(), p.updates.Load(), p.reads.Load())
	}
	db.FlushAll()
	p.maint.Lock()
	err = db.majorCompact(p, nil, nil)
	p.maint.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if p.writes.Load() != 0 || p.updates.Load() != 0 || p.reads.Load() != 0 {
		t.Fatal("compaction must reset partition stats")
	}
	// Update detection restarts after reset.
	db.Put([]byte("k"), []byte("v3"))
	if p.updates.Load() != 0 {
		t.Fatal("first write after reset is not an update")
	}
	db.Put([]byte("k"), []byte("v4"))
	if p.updates.Load() != 1 {
		t.Fatal("second write after reset is an update")
	}
}

// TestConcurrentWriters verifies multi-goroutine writes: every committed key
// must be readable afterwards, across flushes and compactions, and sequence
// assignment must never tear a batch.
func TestConcurrentWriters(t *testing.T) {
	cfg := fastConfig()
	cfg.MemtableBytes = 32 << 10
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const writers = 4
	const perWriter = 2000
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := []byte(fmt.Sprintf("w%d-key-%05d", w, i))
				if err := db.Put(k, []byte(fmt.Sprint(i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	db.FlushAll()
	db.MajorCompactAll()
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i += 211 {
			k := []byte(fmt.Sprintf("w%d-key-%05d", w, i))
			v, ok, err := db.Get(k)
			if err != nil || !ok || string(v) != fmt.Sprint(i) {
				t.Fatalf("writer %d key %d: %q %v %v", w, i, v, ok, err)
			}
		}
	}
	// Total count is exact.
	res, err := db.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != writers*perWriter {
		t.Fatalf("scan found %d keys, want %d", len(res), writers*perWriter)
	}
}
