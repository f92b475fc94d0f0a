package engine

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"pmblade/internal/fault"
)

// scanAll is a full-range unlimited scan.
func scanAll(t *testing.T, db *DB) []ScanResult {
	t.Helper()
	res, err := db.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameResults compares two scan result sets entry for entry.
func sameResults(t *testing.T, label string, got, want []ScanResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("%s: entry %d: got %s=%s, want %s=%s",
				label, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}

// TestScanViewEquivalence pins the view scan path to the plain merge across
// every engine mode, including overwrites, deletes, and data split between
// the mutable overlay and the stable sources.
func TestScanViewEquivalence(t *testing.T) {
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
				k := fmt.Sprintf("key-%05d", i)
				if err := db.Put([]byte(k), []byte(fmt.Sprintf("v1-%05d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.FlushAll(); err != nil {
				t.Fatal(err)
			}
			// More flush rounds so leveled mode crosses its L0 trigger, then
			// major-compact: every mode then has stable sorted sources (an
			// empty stable set makes scans fall back to the plain merge by
			// design, which would starve this test of view hits).
			for j := 0; j < 4; j++ {
				k := fmt.Sprintf("key-%05d", n+j)
				if err := db.Put([]byte(k), []byte(fmt.Sprintf("v1-%05d", n+j))); err != nil {
					t.Fatal(err)
				}
				if err := db.FlushAll(); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.MajorCompactAll(); err != nil {
				t.Fatal(err)
			}
			// Overwrites and deletes that stay in the overlay (memtable /
			// unsorted L0) so the 2-way merge sees both sides.
			for i := 0; i < n; i += 7 {
				k := fmt.Sprintf("key-%05d", i)
				if err := db.Put([]byte(k), []byte(fmt.Sprintf("v2-%05d", i))); err != nil {
					t.Fatal(err)
				}
			}
			for i := 3; i < n; i += 11 {
				if err := db.Delete([]byte(fmt.Sprintf("key-%05d", i))); err != nil {
					t.Fatal(err)
				}
			}

			ranges := []struct {
				start, end string
				limit      int
			}{
				{"", "", 0},
				{"", "", 137},
				{"key-00500", "key-01500", 0},
				{"key-00500", "key-01500", 100},
				{"key-00000", "key-00001", 0},
				{"key-01999", "", 0},
				{"zzz", "", 0},
			}
			for _, r := range ranges {
				var start, end []byte
				if r.start != "" {
					start = []byte(r.start)
				}
				if r.end != "" {
					end = []byte(r.end)
				}
				got, err := db.Scan(start, end, r.limit)
				if err != nil {
					t.Fatal(err)
				}
				// Reference: the plain merge path over the same DB.
				db.plainMerge = true
				want, err := db.Scan(start, end, r.limit)
				db.plainMerge = false
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, fmt.Sprintf("%s scan [%q,%q) limit %d", name, r.start, r.end, r.limit), got, want)
			}
			if db.Metrics().RangeViewHits.Load() == 0 {
				t.Fatal("no scan was served through the range-index view")
			}
			if db.Metrics().RangeViewBuilds.Load() == 0 {
				t.Fatal("no view was ever built")
			}
		})
	}
}

// TestIteratorQuarantineGuard is the satellite bugfix regression: a
// quarantined overlapping table must make NewIterator fail with
// ErrUnavailable exactly when Scan does, instead of silently streaming
// results the corpse may shadow.
func TestIteratorQuarantineGuard(t *testing.T) {
	db, err := Open(scrubConfig(fault.New(33)))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillSSD(t, db, 400)
	if rotEverySST(t, db) == 0 {
		t.Fatal("no SSD tables to rot")
	}
	if _, err := db.ScrubOnce(); err != nil {
		t.Fatal(err)
	}
	if len(db.QuarantineRecords()) == 0 {
		t.Fatal("scrub quarantined nothing")
	}

	_, scanErr := db.Scan([]byte("key-0000"), []byte("key-0399"), 0)
	if !errors.Is(scanErr, ErrUnavailable) {
		t.Fatalf("Scan over quarantined range: err = %v, want ErrUnavailable", scanErr)
	}
	it, iterErr := db.NewIterator([]byte("key-0000"), []byte("key-0399"))
	if !errors.Is(iterErr, ErrUnavailable) {
		if it != nil {
			it.Close()
		}
		t.Fatalf("NewIterator over quarantined range: err = %v, want ErrUnavailable (Scan said %v)", iterErr, scanErr)
	}

	// A disjoint range above the quarantined keys behaves identically on
	// both paths too: fresh writes land above the corpses and are served.
	if err := db.Put([]byte("zz-live"), []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	got, err := db.Scan([]byte("zz"), nil, 0)
	if err != nil {
		t.Fatalf("Scan over clean range: %v", err)
	}
	it2, err := db.NewIterator([]byte("zz"), nil)
	if err != nil {
		t.Fatalf("NewIterator over clean range: %v (Scan succeeded)", err)
	}
	defer it2.Close()
	var iterGot []ScanResult
	for ; it2.Valid(); it2.Next() {
		iterGot = append(iterGot, ScanResult{
			Key:   append([]byte(nil), it2.Key()...),
			Value: append([]byte(nil), it2.Value()...),
		})
	}
	if it2.Err() != nil {
		t.Fatalf("clean-range iterator: %v", it2.Err())
	}
	sameResults(t, "clean range scan vs iterator", iterGot, got)
}

// TestIteratorQuarantineMidIteration: a quarantine landing between
// cross-partition hops stops the stream with ErrUnavailable instead of
// serving shadowed results from the partition quarantined mid-flight.
func TestIteratorQuarantineMidIteration(t *testing.T) {
	cfg := scrubConfig(fault.New(44))
	cfg.PartitionBoundaries = [][]byte{[]byte("key-0200")}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillSSD(t, db, 400)

	it, err := db.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if !it.Valid() {
		t.Fatal("iterator empty")
	}
	// Quarantine every SSD table while the iterator is inside partition 0.
	if rotEverySST(t, db) == 0 {
		t.Fatal("no SSD tables to rot")
	}
	if _, err := db.ScrubOnce(); err != nil {
		t.Fatal(err)
	}
	if len(db.QuarantineRecords()) == 0 {
		t.Fatal("scrub quarantined nothing")
	}
	for it.Valid() {
		it.Next()
	}
	if !errors.Is(it.Err(), ErrUnavailable) {
		t.Fatalf("iterator crossed into a quarantined partition: Err = %v, want ErrUnavailable", it.Err())
	}
}

// TestScanOpensOnlyPartitionsItReads: a limit-bounded scan with no end opens
// the partition that answers it — one, or two when it crosses a boundary —
// and credits a read (the n_i^r of Eq. 1 / Eq. 3) to no other, on the view
// and the plain-merge path alike.
func TestScanOpensOnlyPartitionsItReads(t *testing.T) {
	for _, parts := range []int{4, 16} {
		for _, plain := range []bool{false, true} {
			t.Run(fmt.Sprintf("parts=%d/plain=%v", parts, plain), func(t *testing.T) {
				// Equal partitions of 100 keys each, all in the SSD run so every
				// partition's stable half can carry a range view.
				cfg := fastConfig()
				for i := 1; i < parts; i++ {
					cfg.PartitionBoundaries = append(cfg.PartitionBoundaries, []byte(fmt.Sprintf("key-%04d", i*100)))
				}
				db, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				fillSSD(t, db, parts*100)
				db.plainMerge = plain
				m := db.Metrics()
				for pi := 0; pi < parts; pi++ {
					// Offset 10 is answered inside partition pi; offset 80 needs 30
					// entries of the next one (the last partition has none).
					for _, off := range []int{10, 80} {
						wantOpens := 1
						if off == 80 && pi < parts-1 {
							wantOpens = 2
						}
						var before []int64
						for _, p := range db.partitions {
							before = append(before, p.reads.Load())
						}
						hits, opens := m.RangeViewHits.Load(), m.RangeViewHits.Load()+m.RangeViewFallbacks.Load()
						res, err := db.Scan([]byte(fmt.Sprintf("key-%04d", pi*100+off)), nil, 50)
						if err != nil {
							t.Fatal(err)
						}
						if want := min(50, (parts-pi)*100-off); len(res) != want {
							t.Fatalf("scan from partition %d offset %d: %d results, want %d", pi, off, len(res), want)
						}
						if got := m.RangeViewHits.Load() + m.RangeViewFallbacks.Load() - opens; got != int64(wantOpens) {
							t.Fatalf("scan from partition %d offset %d opened %d partitions, want %d", pi, off, got, wantOpens)
						}
						if got := m.RangeViewHits.Load() - hits; !plain && got != int64(wantOpens) {
							t.Fatalf("scan from partition %d offset %d: %d view hits, want %d", pi, off, got, wantOpens)
						}
						for qi, p := range db.partitions {
							want := before[qi]
							if qi >= pi && qi < pi+wantOpens {
								want++
							}
							if got := p.reads.Load(); got != want {
								t.Fatalf("scan from partition %d offset %d: partition %d reads = %d, want %d", pi, off, qi, got, want)
							}
						}
					}
				}
			})
		}
	}
}

// TestScanLimitTruncationMultiPartition: the ordered partition walk returns
// exactly the full scan's slice for every start (inside the first, second and
// last partition, on a boundary, inside a partition that is entirely
// tombstones), every end (nil, on a boundary, cutting a partition) and every
// limit (0 included), on the view and the plain-merge path.
func TestScanLimitTruncationMultiPartition(t *testing.T) {
	cfg := fastConfig()
	cfg.PartitionBoundaries = [][]byte{[]byte("key-00500"), []byte("key-01000"), []byte("key-01500")}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 2000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("val-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := db.MajorCompactAll(); err != nil {
		t.Fatal(err)
	}
	// The third partition becomes all tombstones and every seventh key of the
	// others is overwritten, both in the overlay above the compacted run: the
	// walk must pass through the dead partition and keep filling.
	var model []ScanResult
	for i := 0; i < 2000; i++ {
		k, v := fmt.Sprintf("key-%05d", i), fmt.Sprintf("val-%05d", i)
		switch {
		case i >= 1000 && i < 1500:
			if err := db.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			continue
		case i%7 == 0:
			v = fmt.Sprintf("new-%05d", i)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		model = append(model, ScanResult{Key: []byte(k), Value: []byte(v)})
	}

	starts := []string{"", "key-00000", "key-00250", "key-00500", "key-00750", "key-00990", "key-01200", "key-01750", "key-01999", "zzz"}
	ends := []string{"", "key-00300", "key-00500", "key-00760", "key-01250", "key-01600"}
	limits := []int{0, 1, 10, 50, 249, 250, 251, 500, 501, 1250, 1500, 5000}
	for _, plain := range []bool{false, true} {
		db.plainMerge = plain
		sameResults(t, fmt.Sprintf("plain=%v full scan", plain), scanAll(t, db), model)
		for _, st := range starts {
			for _, en := range ends {
				var start, end []byte
				want := model
				if st != "" {
					start = []byte(st)
					for len(want) > 0 && bytes.Compare(want[0].Key, start) < 0 {
						want = want[1:]
					}
				}
				if en != "" {
					end = []byte(en)
					for len(want) > 0 && bytes.Compare(want[len(want)-1].Key, end) >= 0 {
						want = want[:len(want)-1]
					}
				}
				for _, limit := range limits {
					got, err := db.Scan(start, end, limit)
					if err != nil {
						t.Fatal(err)
					}
					w := want
					if limit > 0 && limit < len(w) {
						w = w[:limit]
					}
					sameResults(t, fmt.Sprintf("plain=%v scan [%q,%q) limit %d", plain, st, en, limit), got, w)
				}
			}
		}
		if !plain && db.Metrics().RangeViewHits.Load() == 0 {
			t.Fatal("no scan was served through the range-index view")
		}
	}
}

// TestScanDuringViewInstall scans concurrently with flushes and compactions
// publishing new read states (and, at compactions, new views); run under
// -race this pins the state handoff, and in any mode each scanned value must
// be one the writer actually wrote.
func TestScanDuringViewInstall(t *testing.T) {
	db, err := Open(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 800
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("gen-00")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		gen := 1
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := fmt.Sprintf("gen-%02d", gen)
			for i := 0; i < n; i += 5 {
				if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(v)); err != nil {
					return
				}
			}
			if err := db.FlushAll(); err != nil {
				return
			}
			if gen%2 == 0 {
				// Nothing is left to flush: this runs the compaction
				// strategy once more.
				if err := db.FlushAll(); err != nil {
					return
				}
			}
			gen++
		}
	}()

	for round := 0; round < 40; round++ {
		res, err := db.Scan([]byte("key-00100"), []byte("key-00700"), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 {
			t.Fatal("concurrent scan lost the whole range")
		}
		var prev []byte
		for _, r := range res {
			if prev != nil && bytes.Compare(prev, r.Key) >= 0 {
				t.Fatalf("scan out of order: %s then %s", prev, r.Key)
			}
			prev = r.Key
			if !bytes.HasPrefix(r.Value, []byte("gen-")) {
				t.Fatalf("scan returned torn value %q for %s", r.Value, r.Key)
			}
		}
	}
	close(stop)
	wg.Wait()
}
