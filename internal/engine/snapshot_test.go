package engine

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestSnapshotBasic: a snapshot pins a point in time; later writes, deletes,
// flushes, and compactions stay invisible through Get/MultiGet/Scan, and the
// open/close lifecycle drives the gauges.
func TestSnapshotBasic(t *testing.T) {
	db, err := Open(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if err := db.Put([]byte("a"), []byte("a1")); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("b"), []byte("b1")); err != nil {
		t.Fatal(err)
	}
	s, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := db.SnapshotsOpen(); got != 1 {
		t.Fatalf("SnapshotsOpen = %d, want 1", got)
	}
	if got := db.metrics.MinActiveSeq.Load(); got != s.Seq() {
		t.Fatalf("MinActiveSeq gauge = %d, want %d", got, s.Seq())
	}

	// Mutate after the snapshot: overwrite, delete, new key — then push it
	// all through flush and major compaction.
	if err := db.Put([]byte("a"), []byte("a2")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("c"), []byte("c1")); err != nil {
		t.Fatal(err)
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := db.MajorCompactAll(); err != nil {
		t.Fatal(err)
	}

	if v, ok, err := s.Get([]byte("a")); err != nil || !ok || string(v) != "a1" {
		t.Fatalf("snapshot Get(a) = %q %v %v, want a1", v, ok, err)
	}
	if v, ok, err := s.Get([]byte("b")); err != nil || !ok || string(v) != "b1" {
		t.Fatalf("snapshot Get(b) = %q %v %v, want b1", v, ok, err)
	}
	if _, ok, err := s.Get([]byte("c")); err != nil || ok {
		t.Fatalf("snapshot Get(c) found=%v err=%v, want absent", ok, err)
	}
	res, err := s.MultiGet([][]byte{[]byte("a"), []byte("b"), []byte("c")})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Found || string(res[0].Value) != "a1" || !res[1].Found || string(res[1].Value) != "b1" || res[2].Found {
		t.Fatalf("snapshot MultiGet = %+v, want [a1 b1 absent]", res)
	}
	scan, err := s.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan) != 2 || string(scan[0].Key) != "a" || string(scan[0].Value) != "a1" ||
		string(scan[1].Key) != "b" || string(scan[1].Value) != "b1" {
		t.Fatalf("snapshot Scan = %v, want [a=a1 b=b1]", scan)
	}
	if db.metrics.SnapshotScanLatency.Count() == 0 {
		t.Fatal("SnapshotScanLatency not recorded")
	}

	// The live view sees everything.
	if v, ok, _ := db.Get([]byte("a")); !ok || string(v) != "a2" {
		t.Fatalf("live Get(a) = %q %v, want a2", v, ok)
	}
	if _, ok, _ := db.Get([]byte("b")); ok {
		t.Fatal("live Get(b) should be deleted")
	}

	s.Close()
	s.Close() // idempotent
	if got := db.SnapshotsOpen(); got != 0 {
		t.Fatalf("SnapshotsOpen after Close = %d, want 0", got)
	}
	if _, _, err := s.Get([]byte("a")); err != ErrClosed {
		t.Fatalf("Get on closed snapshot = %v, want ErrClosed", err)
	}
}

// TestScanOverwriteAfterSnapshot is the regression for the vanishing-key bug:
// Scan and Iterator used to filter e.Seq > seq AFTER dedup had already
// discarded older versions, so a key overwritten after the snapshot opened
// disappeared entirely instead of resolving to its older visible value. Runs
// with the range view and with its build held — the two routes must agree.
func TestScanOverwriteAfterSnapshot(t *testing.T) {
	for _, plain := range []bool{false, true} {
		t.Run(fmt.Sprintf("plainMerge=%v", plain), func(t *testing.T) {
			db, err := Open(fastConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			const n = 64
			for i := 0; i < n; i++ {
				if err := db.Put(key6(i), []byte(fmt.Sprintf("old-%03d", i))); err != nil {
					t.Fatal(err)
				}
			}
			// Push the old versions to stable storage so the scan crosses
			// tiers (view path needs stable sources to engage at all).
			if err := db.FlushAll(); err != nil {
				t.Fatal(err)
			}
			s, err := db.NewSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// Overwrite every even key and delete every key divisible by 8
			// AFTER the snapshot opened.
			for i := 0; i < n; i += 2 {
				if err := db.Put(key6(i), []byte("new")); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i += 8 {
				if err := db.Delete(key6(i)); err != nil {
					t.Fatal(err)
				}
			}

			if plain {
				defer holdViewBuilds(db)()
			}
			check := func(label string, got []ScanResult) {
				t.Helper()
				if len(got) != n {
					t.Fatalf("%s: %d keys, want %d (overwritten-after-open keys vanished)", label, len(got), n)
				}
				for i, r := range got {
					want := fmt.Sprintf("old-%03d", i)
					if !bytes.Equal(r.Key, key6(i)) || string(r.Value) != want {
						t.Fatalf("%s: entry %d = (%q,%q), want (%q,%q)", label, i, r.Key, r.Value, key6(i), want)
					}
				}
			}
			res, err := s.Scan(nil, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			check("Scan", res)

			it, err := s.NewIterator(nil, nil)
			walked := walk(t, it, err, 0)
			check("Iterator", walked)
		})
	}
}

// TestIteratorPinnedAcrossCompaction: an iterator's snapshot sequence stays
// pinned in the registry for the iterator's whole life, so versions it can
// still read survive flushes and major compactions that run between
// partition hops.
func TestIteratorPinnedAcrossCompaction(t *testing.T) {
	cfg := fastConfig()
	cfg.PartitionBoundaries = [][]byte{[]byte("key-000100")}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const n = 200 // keys 0..99 in partition 0, 100..199 in partition 1
	for i := 0; i < n; i++ {
		if err := db.Put(key6(i), []byte(fmt.Sprintf("old-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	it, err := db.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if got := db.MinActiveSeq(); got != it.seq {
		t.Fatalf("MinActiveSeq = %d, want iterator seq %d", got, it.seq)
	}

	// Drain partition 0, then overwrite partition 1's keys and force them
	// through flush + major compaction before the iterator hops over.
	seen := 0
	for ; it.Valid() && bytes.Compare(it.Key(), []byte("key-000100")) < 0; it.Next() {
		want := fmt.Sprintf("old-%03d", seen)
		if string(it.Value()) != want {
			t.Fatalf("partition 0 entry %d = %q, want %q", seen, it.Value(), want)
		}
		seen++
	}
	if seen != 100 {
		t.Fatalf("partition 0 yielded %d keys, want 100", seen)
	}
	for i := 100; i < n; i++ {
		if err := db.Put(key6(i), []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := db.MajorCompactAll(); err != nil {
		t.Fatal(err)
	}
	for ; it.Valid(); it.Next() {
		want := fmt.Sprintf("old-%03d", seen)
		if string(it.Value()) != want {
			t.Fatalf("post-compaction entry %d = %q, want %q (pinned version dropped)", seen, it.Value(), want)
		}
		seen++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("iterator yielded %d keys, want %d", seen, n)
	}
	it.Close()
	if got, want := db.MinActiveSeq(), db.VisibleSeq(); got != want {
		t.Fatalf("MinActiveSeq after Close = %d, want watermark %d (pin leaked)", got, want)
	}
}

// TestSnapshotNoTornBatches is the torn-batch regression under concurrency:
// writers apply batches whose entries all carry the same payload tag; any
// snapshot read (Scan or MultiGet) must observe each batch all-or-nothing.
// Before the visible-seq watermark, per-entry seq allocation made half-
// inserted batches readable. Plain db.Scan calls whose limit spans both
// partitions read alongside: Scan reads its partitions one after another, so
// only the sequence it pins keeps a batch that commits between the two reads
// out of the second. Run with -race for the full effect.
func TestSnapshotNoTornBatches(t *testing.T) {
	cfg := fastConfig()
	cfg.PartitionBoundaries = [][]byte{[]byte("key-000016")}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const nKeys = 32 // batches span both partitions
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = key6(i)
	}
	// Seed generation 0 so every key always exists.
	var b Batch
	for _, k := range keys {
		b.Put(k, []byte("gen-000000"))
	}
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writerWG, readerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for gen := 1; ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			var b Batch
			tag := fmt.Sprintf("gen-%06d", gen)
			for _, k := range keys {
				b.Put(k, []byte(tag))
			}
			if err := db.Apply(&b); err != nil {
				t.Errorf("Apply: %v", err)
				return
			}
		}
	}()

	const readers = 6 // two snapshot Scan, two snapshot MultiGet, two plain Scan
	const roundsPerReader = 60
	readerWG.Add(readers)
	for r := 0; r < readers; r++ {
		r := r
		go func() {
			defer readerWG.Done()
			for round := 0; round < roundsPerReader; round++ {
				if r >= 4 {
					// Plain scans crossing the boundary: every key, and the 8 keys
					// on either side of it.
					start, want := []byte(nil), nKeys
					if r == 5 {
						start, want = keys[8], 16
					}
					res, err := db.Scan(start, nil, want)
					if err != nil {
						t.Errorf("Scan: %v", err)
						return
					}
					if len(res) != want {
						t.Errorf("Scan returned %d keys, want %d", len(res), want)
						return
					}
					for _, kv := range res {
						if !bytes.Equal(kv.Value, res[0].Value) {
							t.Errorf("torn batch in plain Scan: key %s has tag %q, key %s has %q",
								kv.Key, kv.Value, res[0].Key, res[0].Value)
							return
						}
					}
					continue
				}
				s, err := db.NewSnapshot()
				if err != nil {
					t.Errorf("NewSnapshot: %v", err)
					return
				}
				var tags []string
				if r%2 == 0 {
					res, err := s.Scan(nil, nil, 0)
					if err != nil {
						t.Errorf("snapshot Scan: %v", err)
						s.Close()
						return
					}
					if len(res) != nKeys {
						t.Errorf("snapshot Scan returned %d keys, want %d", len(res), nKeys)
						s.Close()
						return
					}
					for _, kv := range res {
						tags = append(tags, string(kv.Value))
					}
				} else {
					res, err := s.MultiGet(keys)
					if err != nil {
						t.Errorf("snapshot MultiGet: %v", err)
						s.Close()
						return
					}
					for i, g := range res {
						if g.Err != nil || !g.Found {
							t.Errorf("snapshot MultiGet(%s): found=%v err=%v", keys[i], g.Found, g.Err)
							s.Close()
							return
						}
						tags = append(tags, string(g.Value))
					}
				}
				for i := 1; i < len(tags); i++ {
					if tags[i] != tags[0] {
						t.Errorf("torn batch at snapshot seq %d: key %d has tag %q, key 0 has %q",
							s.Seq(), i, tags[i], tags[0])
						s.Close()
						return
					}
				}
				s.Close()
			}
		}()
	}
	// Readers finish their fixed rounds first; then the writer stops.
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
	checkTierOrder(t, db, false)
}
