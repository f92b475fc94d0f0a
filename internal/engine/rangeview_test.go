package engine

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"pmblade/internal/fault"
	"pmblade/internal/kv"
	"pmblade/internal/levels"
	"pmblade/internal/sstable"
)

// holdViewBuilds puts every partition where production's no-view route finds
// it: the current state's stable half has no view and a build in flight, so a
// range read merges the stable tables itself. The returned func lets builds
// through again. A stable half published in between (a compaction's, a
// quarantine's) is not held.
func holdViewBuilds(db *DB) (release func()) {
	var held []*stableHalf
	for _, p := range db.partitions {
		h := p.state.Load().stableHalf
		h.view.Store(nil)
		h.building.Store(true)
		held = append(held, h)
	}
	return func() {
		for _, h := range held {
			h.building.Store(false)
		}
	}
}

// walk drains an iterator into owned results, at most limit of them (0 =
// all), and closes it.
func walk(t *testing.T, it *Iterator, err error, limit int) []ScanResult {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out []ScanResult
	for ; it.Valid() && (limit == 0 || len(out) < limit); it.Next() {
		out = append(out, ScanResult{Key: bytes.Clone(it.Key()), Value: bytes.Clone(it.Value())})
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

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

// oracleScan is the reference range read, built from code the cursor does not
// share: per partition, every table of an acquired state through kv's merging
// → visible → retain pipeline, then the range, tombstone and limit filters.
func oracleScan(db *DB, start, end []byte, limit int, seq uint64) ([]ScanResult, error) {
	var out []ScanResult
	for _, p := range db.partitions {
		s := p.acquire()
		its := []kv.Iterator{s.mem.NewIterator()}
		for _, m := range s.imm {
			its = append(its, m.NewIterator())
		}
		for _, t := range s.pmTables() {
			its = append(its, t.NewIterator())
		}
		for _, t := range s.ssts() {
			its = append(its, t.NewIterator())
		}
		it := kv.NewRetainIterator(kv.NewVisibleIterator(kv.NewMergingIterator(its...), seq), nil, false)
		for ; it.Valid(); it.Next() {
			e := it.Entry()
			if e.Kind == kv.KindDelete || bytes.Compare(e.Key, start) < 0 || (end != nil && bytes.Compare(e.Key, end) >= 0) {
				continue
			}
			out = append(out, ScanResult{Key: e.Key, Value: e.Value})
		}
		err := it.Err()
		s.release()
		if err != nil {
			return nil, err
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// TestScanViewEquivalence holds the range-read cursor to an oracle it shares no
// merge code with, in every engine mode, on each of its routes — a view over
// the stable half, the view's build held by another reader, no stable half at
// all — through each API that drains it (Scan, Snapshot.Scan, Iterator,
// Snapshot.NewIterator), at the current sequence and at older ones. The data
// has every shape the loop branches on: versions retained by snapshots inside
// the stable half (runs of three; a tombstone between two values), newer
// versions and tombstones in the overlay above them, keys whose newest version
// postdates the read in either place.
func TestScanViewEquivalence(t *testing.T) {
	const n = 600
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	put := func(t *testing.T, db *DB, gen string, keep func(i int) bool) {
		t.Helper()
		for i := 0; i < n; i++ {
			if keep(i) {
				if err := db.Put(key(i), []byte(fmt.Sprintf("%s-%05d", gen, i))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	del := func(t *testing.T, db *DB, keep func(i int) bool) {
		t.Helper()
		for i := 0; i < n; i++ {
			if keep(i) {
				if err := db.Delete(key(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	snap := func(t *testing.T, db *DB) *Snapshot {
		t.Helper()
		s, err := db.NewSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	flush := func(t *testing.T, db *DB) {
		t.Helper()
		if err := db.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	// load writes the data set and returns the snapshots to read at, oldest
	// first, the last at the final sequence. With stable, the first three
	// generations are compacted into the stable half under the snapshots that
	// separate them; without, nothing is compacted and they stay in level 0.
	load := func(t *testing.T, db *DB, stable bool) []*Snapshot {
		put(t, db, "v1", func(int) bool { return true })
		snaps := []*Snapshot{snap(t, db)}
		put(t, db, "v2", func(i int) bool { return i%5 == 0 })
		del(t, db, func(i int) bool { return i%13 == 4 })
		snaps = append(snaps, snap(t, db))
		// Keys divisible by 10 now have three versions, and every other deleted
		// key a value above its tombstone.
		put(t, db, "v3", func(i int) bool { return i%10 == 0 || i%26 == 4 })
		snaps = append(snaps, snap(t, db))
		flush(t, db)
		if stable {
			// More flush rounds so leveled mode crosses its L0 trigger, then
			// major-compact: every mode then has stable sorted sources.
			for j := 0; j < 4; j++ {
				for _, i := range []int{1, 301} { // one key in each partition
					if err := db.Put(fmt.Appendf(key(i), "-pad%d", j), []byte("pad")); err != nil {
						t.Fatal(err)
					}
				}
				flush(t, db)
			}
			if err := db.MajorCompactAll(); err != nil {
				t.Fatal(err)
			}
		}
		// The overlay: one generation flushed to level 0, the rest in the
		// memtable.
		put(t, db, "v4", func(i int) bool { return i%7 == 0 })
		flush(t, db)
		del(t, db, func(i int) bool { return i%11 == 3 })
		snaps = append(snaps, snap(t, db))
		put(t, db, "v5", func(i int) bool { return i%3 == 0 })
		return append(snaps, snap(t, db))
	}
	type scanRange struct {
		what       string
		start, end []byte
		limit      int
	}
	// rangesAt lists the ranges to read at one sequence; all is the oracle's
	// full result there, from which the limits that stop at a chosen key are
	// counted.
	rangesAt := func(all []ScanResult) []scanRange {
		indexOf := func(k []byte) int {
			i, _ := slices.BinarySearchFunc(all, k, func(r ScanResult, k []byte) int { return bytes.Compare(r.Key, k) })
			return i
		}
		return []scanRange{
			{"everything", nil, nil, 0},
			{"limit", nil, nil, 137},
			{"inside partition 1", key(310), key(500), 0},
			{"across the boundary, limited", key(250), key(450), 100},
			{"one key", key(0), key(1), 0},
			{"tail", key(n - 1), nil, 0},
			{"nothing", []byte("zzz"), nil, 0},
			{"end in front of a version run", key(80), key(100), 0},
			{"end behind a version run", key(80), append(key(100), 0), 0},
			{"end behind a tombstone in the view", key(0), append(key(4), 0), 0},
			{"budget reached inside a version run", nil, nil, indexOf(key(100)) + 1},
			{"budget reached at a key newer above", key(2), nil, indexOf(key(30)) - indexOf(key(2)) + 1},
			{"budget of 1 left at the boundary", key(290), nil, indexOf(key(300)) - indexOf(key(290)) + 1},
			{"budget spent at the boundary", key(290), nil, indexOf(key(300)) - indexOf(key(290))},
		}
	}
	routes := []struct {
		name         string
		stable, hold bool
	}{
		{"view", true, false},
		{"build held", true, true},
		{"empty stable half", false, false},
	}
	for name, cfg := range allModeConfigs() {
		t.Run(name, func(t *testing.T) {
			for _, route := range routes {
				t.Run(route.name, func(t *testing.T) {
					cfg := cfg
					cfg.PartitionBoundaries = [][]byte{key(300)}
					db, err := Open(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer db.Close()
					snaps := load(t, db, route.stable)
					for _, p := range db.partitions {
						s := p.state.Load()
						if empty := len(s.pmSorted) == 0 && !slices.ContainsFunc(s.runs, func(r []*sstable.Table) bool { return len(r) > 0 }); empty == route.stable {
							t.Fatalf("partition %d: stable half empty = %v", p.id, empty)
						}
					}
					if route.stable {
						// The shapes the dup-bit branches need are really in the
						// stable half: three versions of key 100, and a tombstone
						// between two values of key 4.
						kinds := func(k []byte) (kinds []kv.Kind) {
							s := db.route(k).state.Load()
							its := []kv.Iterator{}
							for _, t := range s.pmSorted {
								its = append(its, t.NewIterator())
							}
							for _, run := range s.runs {
								its = append(its, levels.NewConcatIterator(run))
							}
							kv.Seek(k, its...)
							it := kv.NewMergingIteratorAt(its...)
							for ; it.Valid() && bytes.Equal(it.Entry().Key, k); it.Next() {
								kinds = append(kinds, it.Entry().Kind)
							}
							if err := it.Err(); err != nil {
								t.Fatal(err)
							}
							return kinds
						}
						if got := kinds(key(100)); !slices.Equal(got, []kv.Kind{kv.KindSet, kv.KindSet, kv.KindSet}) {
							t.Fatalf("stable versions of key 100: %v, want three values", got)
						}
						if got := kinds(key(4)); !slices.Equal(got, []kv.Kind{kv.KindSet, kv.KindDelete, kv.KindSet}) {
							t.Fatalf("stable versions of key 4: %v, want a tombstone between two values", got)
						}
					}
					if route.hold {
						defer holdViewBuilds(db)()
					}
					for si, sn := range snaps {
						all, err := oracleScan(db, nil, nil, 0, sn.seq)
						if err != nil {
							t.Fatal(err)
						}
						for _, r := range rangesAt(all) {
							want, err := oracleScan(db, r.start, r.end, r.limit, sn.seq)
							if err != nil {
								t.Fatal(err)
							}
							label := fmt.Sprintf("snapshot %d, %s: ", si, r.what)
							got, err := sn.Scan(r.start, r.end, r.limit)
							if err != nil {
								t.Fatal(err)
							}
							sameResults(t, label+"Snapshot.Scan", got, want)
							it, err := sn.NewIterator(r.start, r.end)
							sameResults(t, label+"Snapshot.NewIterator", walk(t, it, err, r.limit), want)
							if si < len(snaps)-1 {
								continue
							}
							// The last snapshot stands at the current sequence.
							got, err = db.Scan(r.start, r.end, r.limit)
							if err != nil {
								t.Fatal(err)
							}
							sameResults(t, label+"Scan", got, want)
							it, err = db.NewIterator(r.start, r.end)
							sameResults(t, label+"Iterator", walk(t, it, err, r.limit), want)
						}
					}
					m := db.Metrics()
					if hits := m.RangeViewHits.Load(); (hits > 0) != (route.stable && !route.hold) {
						t.Fatalf("%d partitions opened with a view, %d without", hits, m.RangeViewFallbacks.Load())
					}
				})
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
	iterGot := walk(t, it2, err, 0)
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
// and credits a read (the n_i^r of Eq. 1 / Eq. 3) to no other, with a view and
// without; an iterator that streams the same entries opens, and credits, the
// same partitions.
func TestScanOpensOnlyPartitionsItReads(t *testing.T) {
	reads := map[string]func(t *testing.T, db *DB, start []byte) int{
		"Scan": func(t *testing.T, db *DB, start []byte) int {
			res, err := db.Scan(start, nil, 50)
			if err != nil {
				t.Fatal(err)
			}
			return len(res)
		},
		"Iterator": func(t *testing.T, db *DB, start []byte) int {
			it, err := db.NewIterator(start, nil)
			return len(walk(t, it, err, 50))
		},
	}
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
				if plain {
					defer holdViewBuilds(db)()
				}
				m := db.Metrics()
				for name, read := range reads {
					for pi := 0; pi < parts; pi++ {
						// Offset 10 is answered inside partition pi; offset 80 needs 30
						// entries of the next one (the last partition has none).
						for _, off := range []int{10, 80} {
							label := fmt.Sprintf("%s from partition %d offset %d", name, pi, off)
							wantOpens := 1
							if off == 80 && pi < parts-1 {
								wantOpens = 2
							}
							var before []int64
							for _, p := range db.partitions {
								before = append(before, p.reads.Load())
							}
							hits, opens := m.RangeViewHits.Load(), m.RangeViewHits.Load()+m.RangeViewFallbacks.Load()
							got := read(t, db, []byte(fmt.Sprintf("key-%04d", pi*100+off)))
							if want := min(50, (parts-pi)*100-off); got != want {
								t.Fatalf("%s: %d results, want %d", label, got, want)
							}
							if got := m.RangeViewHits.Load() + m.RangeViewFallbacks.Load() - opens; got != int64(wantOpens) {
								t.Fatalf("%s opened %d partitions, want %d", label, got, wantOpens)
							}
							if got := m.RangeViewHits.Load() - hits; !plain && got != int64(wantOpens) {
								t.Fatalf("%s: %d view hits, want %d", label, got, wantOpens)
							}
							for qi, p := range db.partitions {
								want := before[qi]
								if qi >= pi && qi < pi+wantOpens {
									want++
								}
								if got := p.reads.Load(); got != want {
									t.Fatalf("%s: partition %d reads = %d, want %d", label, qi, got, want)
								}
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
// limit (0 included), with the view and with its build held.
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
		if plain {
			defer holdViewBuilds(db)()
		}
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
