package engine

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"pmblade/internal/device"
	"pmblade/internal/fault"
	"pmblade/internal/pmtable"
	"pmblade/internal/sstable"
)

// These tests pin the iterator error contract at the engine's surfaces: a
// table that fails to read or decode under a compaction, a scan or an
// iterator is an error — and, when it is rot, a quarantine — never a shorter
// result with a nil error beside it.

// TestRotThenMajorCompactLosesNothing: rot in the SSD run that nothing has
// noticed yet is met first by a major compaction. The compaction must not
// install an output cut short where its input stopped decoding (and retire
// the evidence): the rotted tables are quarantined, the job is done without
// them, and every acknowledged key reads back exactly or as ErrUnavailable
// until repair — after which only what sat in the blocks salvage had to skip
// is gone.
func TestRotThenMajorCompactLosesNothing(t *testing.T) {
	db, err := Open(scrubConfig(fault.New(21)))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := fillSSD(t, db, 3000)
	if rotEverySST(t, db) == 0 {
		t.Fatal("no SSD tables to rot")
	}
	for i := 3000; i < 3050; i++ {
		k, v := fmt.Sprintf("key-%04d", i), fmt.Sprintf("val-%04d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	if err := db.FlushAll(); err != nil {
		t.Fatalf("FlushAll over a rotted run: %v", err)
	}
	if err := db.MajorCompactAll(); err != nil {
		t.Fatalf("MajorCompactAll over a rotted run: %v (rot is a quarantine, not a failure)", err)
	}
	if len(db.QuarantineRecords()) == 0 {
		t.Fatal("the compaction read rotted tables and quarantined none")
	}
	unavailable := 0
	for k, v := range want {
		got, ok, err := db.Get([]byte(k))
		switch {
		case errors.Is(err, ErrUnavailable):
			unavailable++
		case err != nil:
			t.Fatalf("Get(%s): %v", k, err)
		case !ok:
			t.Fatalf("Get(%s): acknowledged key is gone, with a nil error", k)
		case string(got) != v:
			t.Fatalf("Get(%s) = %q, want %q", k, got, v)
		}
	}
	if unavailable == 0 {
		t.Fatal("no key is ErrUnavailable although its table is quarantined")
	}
	if res, err := db.Scan(nil, nil, 0); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("full Scan over a quarantined range: %d entries, err %v", len(res), err)
	}

	if err := db.RepairQuarantined(); err != nil {
		t.Fatal(err)
	}
	skipped := db.Metrics().RepairBlocksSkipped.Load()
	if skipped == 0 {
		t.Fatal("repair skipped no block although every table had a rotted one")
	}
	lost := 0
	for k, v := range want {
		got, ok, err := db.Get([]byte(k))
		switch {
		case err != nil:
			t.Fatalf("Get(%s) after repair: %v", k, err)
		case !ok:
			lost++
		case string(got) != v:
			t.Fatalf("Get(%s) after repair = %q, want %q", k, got, v)
		}
	}
	// A 4 KiB block holds fewer than 256 of these 16-byte records.
	if int64(lost) > skipped*256 {
		t.Fatalf("%d keys lost, more than the %d blocks salvage skipped can have held", lost, skipped)
	}
	res, err := db.Scan(nil, nil, 0)
	if err != nil || len(res) != len(want)-lost {
		t.Fatalf("full Scan after repair: %d entries, err %v; Get finds %d keys", len(res), err, len(want)-lost)
	}
}

// TestRotThenScanFailsLoud: every range read that runs into undiscovered rot
// — with a view and with its build held, through Scan, Snapshot.Scan and the
// streaming iterator — ends in an error: the corruption itself from a
// stream that had already yielded, ErrUnavailable from a read that could
// quarantine the table and look again. None returns the entries in front of
// the rot as if they were all there are.
func TestRotThenScanFailsLoud(t *testing.T) {
	const n = 3000
	reads := map[string]func(db *DB) (int, error){
		"Scan": func(db *DB) (int, error) {
			res, err := db.Scan(nil, nil, 0)
			return len(res), err
		},
		"Snapshot.Scan": func(db *DB) (int, error) {
			snap, err := db.NewSnapshot()
			if err != nil {
				return 0, err
			}
			defer snap.Close()
			res, err := snap.Scan(nil, nil, 0)
			return len(res), err
		},
		"NewIterator": func(db *DB) (int, error) {
			it, err := db.NewIterator(nil, nil)
			if err != nil {
				return 0, err
			}
			defer it.Close()
			got := 0
			for ; it.Valid(); it.Next() {
				got++
			}
			return got, it.Err()
		},
	}
	for _, plain := range []bool{false, true} {
		for name, read := range reads {
			t.Run(fmt.Sprintf("plainMerge=%v/%s", plain, name), func(t *testing.T) {
				db, err := Open(scrubConfig(fault.New(21)))
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				fillSSD(t, db, n)
				if rotEverySST(t, db) == 0 {
					t.Fatal("no SSD tables to rot")
				}
				if plain {
					defer holdViewBuilds(db)()
				}
				got, err := read(db)
				var ce *device.CorruptionError
				if !errors.Is(err, ErrUnavailable) && !errors.As(err, &ce) {
					t.Fatalf("%d of %d entries with error %v; want the corruption or ErrUnavailable", got, n, err)
				}
				if len(db.QuarantineRecords()) == 0 {
					t.Fatal("the read met rot and quarantined nothing")
				}
				// The next reader finds the range flagged.
				if got, err := read(db); !errors.Is(err, ErrUnavailable) {
					t.Fatalf("second read: %d entries, err %v; want ErrUnavailable", got, err)
				}
			})
		}
	}
}

// TestIteratorErrorContract holds the range-read cursor to the kv.Iterator
// contract that internal/kv's test of the same name holds every source and
// wrapper to. Intact, it drains to its last entry and ends with a nil Err. With
// a table under either side of its merge rotted part-way, it yields a proper
// prefix of that — nothing past the failure, although the other side still has
// keys there — and then it is not Valid, Err is the table's corruption, and
// both stay so.
func TestIteratorErrorContract(t *testing.T) {
	const n = 6000
	cases := []struct {
		name string
		hold bool
		// victim picks the table to rot: the level-0 one is on the heap's side of
		// the merge on either route, the run's on the view's side when there is
		// a view.
		victim func(s *readState) *sstable.Table
	}{
		{"view side", false, func(s *readState) *sstable.Table { return s.runs[0][len(s.runs[0])/2] }},
		{"heap side beside a view", false, func(s *readState) *sstable.Table { return s.ssdL0[0] }},
		{"heap side, build held", true, func(s *readState) *sstable.Table { return s.runs[0][len(s.runs[0])/2] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// PMBlade-SSD, no block cache: flushes land in SSD level 0, and every
			// drain reads the device.
			cfg := faultConfig(fault.New(9))
			cfg.Level0OnPM, cfg.InternalCompaction = false, false
			cfg.MemtableBytes = 512 << 10
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			fillSSD(t, db, n)
			// Level 0 interleaves with the run, and the memtable with both.
			for i := 0; i < n; i++ {
				if err := db.Put([]byte(fmt.Sprintf("key-%04d+", i)), []byte("level-0")); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.FlushAll(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i += 10 {
				if err := db.Put([]byte(fmt.Sprintf("key-%04d-", i)), []byte("memtable")); err != nil {
					t.Fatal(err)
				}
			}
			p := db.partitions[0]
			if s := p.state.Load(); len(s.ssdL0) != 1 || len(s.runs[0]) == 0 {
				t.Fatalf("%d level-0 tables over a run of %d, want 1 over some", len(s.ssdL0), len(s.runs[0]))
			}
			if tc.hold {
				defer holdViewBuilds(db)()
			}
			drain := func() (keys []string, err error) {
				var c cursor
				c.open(db, p, nil, nil, db.VisibleSeq(), 0)
				defer c.close()
				for ; c.Valid(); c.Next() {
					keys = append(keys, string(c.Entry().Key))
				}
				err = c.Err()
				if c.Next(); c.Valid() || c.Err() != err {
					t.Fatalf("after the end: Valid %v, Err %v, was %v", c.Valid(), c.Err(), err)
				}
				return keys, err
			}
			intact, err := drain()
			if err != nil || len(intact) != 2*n+n/10 {
				t.Fatalf("intact: %d entries, err %v; want %d", len(intact), err, 2*n+n/10)
			}
			victim := tc.victim(p.state.Load())
			if _, err := db.SSDDevice().Rot(victim.File(), victim.DataBytes()/2, 1); err != nil {
				t.Fatal(err)
			}
			got, err := drain()
			var ce *device.CorruptionError
			if !errors.As(err, &ce) || ce.ID != uint64(victim.File()) {
				t.Fatalf("damaged: %d entries, err %v; want the corruption of table %d", len(got), err, victim.File())
			}
			if len(got) == 0 || len(got) >= len(intact) || !slices.Equal(got, intact[:len(got)]) {
				t.Fatalf("damaged: %d entries, intact %d: not a proper prefix", len(got), len(intact))
			}
			if hits := db.Metrics().RangeViewHits.Load(); (hits > 0) == tc.hold {
				t.Fatalf("%d partitions opened with a view", hits)
			}
		})
	}
}

// TestCorruptPMTableIsQuarantinedNotSkipped: a PM table that holds the newest
// version of a key stops decoding. Get must not take the failed probe for a
// miss and answer with the older version on SSD: the table is quarantined and
// the key is ErrUnavailable; an internal compaction that reads the table
// quarantines it too and leaves the rest of level-0 standing.
func TestCorruptPMTableIsQuarantinedNotSkipped(t *testing.T) {
	// smash overwrites the dictionary index that opens the entry layer of the
	// partition's newest PM table. The layout is pmtable/prefix.go's: with keys
	// too short for the dictionary, header and meta layer fill the image's
	// first line and the slots of its groups (72 entries: 9 groups) the
	// second, so the entry layer starts at 512. No table has 255 dictionary
	// entries.
	smash := func(t *testing.T, db *DB) *pmtable.Table {
		t.Helper()
		tbl := db.partitions[0].state.Load().pmUnsorted[0]
		if tbl.Len() != 72 {
			t.Fatalf("newest PM table holds %d entries, the offset below assumes 72", tbl.Len())
		}
		if err := db.PMDevice().WriteAt(tbl.Addr(), 512, []byte{0xff}, device.CauseUnknown); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	open := func(t *testing.T) (*DB, map[string]string) {
		t.Helper()
		db, err := Open(scrubConfig(fault.New(27)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		want := fillSSD(t, db, 300)
		for i := 0; i < 72; i++ {
			k, v := fmt.Sprintf("key-%04d", i), fmt.Sprintf("new-%04d", i)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			want[k] = v
		}
		if err := db.FlushAll(); err != nil {
			t.Fatal(err)
		}
		return db, want
	}
	check := func(t *testing.T, db *DB, want map[string]string, rotted *pmtable.Table) {
		t.Helper()
		recs := db.QuarantineRecords()
		if len(recs) != 1 || recs[0].Device != "pm" || recs[0].ID != uint64(rotted.Addr()) {
			t.Fatalf("quarantine records %+v, want the one PM table at %d", recs, rotted.Addr())
		}
		for k, v := range want {
			got, ok, err := db.Get([]byte(k))
			switch {
			case errors.Is(err, ErrUnavailable):
			case err != nil || !ok || string(got) != v:
				t.Fatalf("Get(%s) = %q, found %v, err %v; want %q or ErrUnavailable", k, got, ok, err, v)
			}
		}
	}

	t.Run("Get", func(t *testing.T) {
		db, want := open(t)
		rotted := smash(t, db)
		if got, ok, err := db.Get([]byte("key-0000")); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("Get = %q, found %v, err %v; want ErrUnavailable, not the SSD run's older version", got, ok, err)
		}
		check(t, db, want, rotted)
		res, err := db.MultiGet([][]byte{[]byte("key-0001"), []byte("key-0200")})
		if err != nil || !errors.Is(res[0].Err, ErrUnavailable) || !res[1].Found {
			t.Fatalf("MultiGet = %+v, err %v; want ErrUnavailable for the shadowed key only", res, err)
		}
	})
	t.Run("InternalCompactAll", func(t *testing.T) {
		db, want := open(t)
		// A second, intact PM table: the compaction has something to merge
		// once the corpse is out of its way.
		for i := 100; i < 110; i++ {
			k, v := fmt.Sprintf("key-%04d", i), fmt.Sprintf("newer-%04d", i)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			want[k] = v
		}
		rotted := smash(t, db)
		if err := db.FlushAll(); err != nil {
			t.Fatal(err)
		}
		used := db.PMDevice().Used()
		if err := db.InternalCompactAll(); err != nil {
			t.Fatalf("InternalCompactAll over a rotted table: %v (rot is a quarantine, not a failure)", err)
		}
		check(t, db, want, rotted)
		s := db.partitions[0].state.Load()
		if len(s.pmUnsorted) != 0 || len(s.pmSorted) == 0 {
			t.Fatalf("level-0 after the compaction: %d unsorted, %d sorted tables; want the intact table compacted", len(s.pmUnsorted), len(s.pmSorted))
		}
		if now := db.PMDevice().Used(); now > used {
			t.Fatalf("PM in use grew from %d to %d bytes: the failed attempt's output was not released", used, now)
		}
		if err := db.loadBgErr(); err != nil {
			t.Fatalf("rot parked in bgErr: %v", err)
		}
	})
}

// tableSet lists the files of every SSD table of every partition.
func tableSet(db *DB) (files []uint64) {
	for _, p := range db.partitions {
		for _, t := range p.state.Load().ssts() {
			files = append(files, uint64(t.File()))
		}
	}
	return files
}

// TestCompactionReadFaultInstallsNothing drives the read failpoint: the n-th
// read of a compaction's input fails. A permanent fault is the compaction's
// error — the table set is what it was, no output file is stranded on the
// device, every key still reads, and the same compaction succeeds once the
// fault is gone. A transient one is surfaced the same way: it may fail the
// job, it may not shorten it.
func TestCompactionReadFaultInstallsNothing(t *testing.T) {
	modes := map[string]func(*Config){
		"major": func(*Config) {},
		"leveled": func(c *Config) {
			c.Level0OnPM, c.InternalCompaction, c.CostBased, c.L1TargetBytes = false, false, false, 1<<20
		},
	}
	for mode, set := range modes {
		for _, kind := range []error{fault.ErrPermanent, fault.ErrTransient} {
			for _, hit := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/%v/read%d", mode, kind, hit), func(t *testing.T) {
					in := fault.New(31)
					cfg := scrubConfig(in)
					set(&cfg)
					cfg.SSTableBytes = 16 << 10
					db, err := Open(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer db.Close()
					want := fillSSD(t, db, 2000)
					// New versions of every tenth key: the next compaction has
					// to rewrite the tables the first one built.
					for i := 0; i < 2000; i += 10 {
						k, v := fmt.Sprintf("key-%04d", i), fmt.Sprintf("new-%04d", i)
						if err := db.Put([]byte(k), []byte(v)); err != nil {
							t.Fatal(err)
						}
						want[k] = v
					}
					if err := db.FlushAll(); err != nil {
						t.Fatal(err)
					}
					compact := db.MajorCompactAll
					if cfg.L1TargetBytes > 0 {
						// The CauseLeveled job, run on demand: level 0 into level 1.
						p := db.partitions[0]
						if len(p.tree.L0Tables()) == 0 {
							// The flush tipped the trigger and emptied level 0.
							if err := db.Put([]byte("key-0000"), []byte(want["key-0000"])); err != nil {
								t.Fatal(err)
							}
							if err := db.FlushAll(); err != nil {
								t.Fatal(err)
							}
						}
						if len(p.tree.L0Tables()) == 0 || p.tree.Run(1).Len() == 0 {
							t.Fatalf("a leveled step needs tables in level 0 and level 1 to read: %d and %d", len(p.tree.L0Tables()), p.tree.Run(1).Len())
						}
						compact = func() error {
							return db.maintain(p, func() error { return db.compactToSSD(p, leveledStep(p.tree, 0)) })
						}
					}
					tables, files := tableSet(db), db.SSDDevice().Files()
					in.FailPoint(fault.SSDRead, hit, fault.Decision{Err: kind})
					err = compact()
					if !errors.Is(err, kind) {
						t.Fatalf("compaction whose input read %d fails: %v, want %v", hit, err, kind)
					}
					if now := tableSet(db); !slices.Equal(now, tables) {
						t.Fatalf("table set changed under a failed compaction: %v, was %v", now, tables)
					}
					if now := db.SSDDevice().Files(); !slices.Equal(now, files) {
						t.Fatalf("files on the device changed under a failed compaction: %v, was %v", now, files)
					}
					if len(db.QuarantineRecords()) != 0 {
						t.Fatal("a device read error quarantined a table")
					}
					verify := func(when string) {
						t.Helper()
						for k, v := range want {
							if got, ok, err := db.Get([]byte(k)); err != nil || !ok || string(got) != v {
								t.Fatalf("%s: Get(%s) = %q, found %v, err %v; want %q", when, k, got, ok, err, v)
							}
						}
						if res, err := db.Scan(nil, nil, 0); err != nil || len(res) != len(want) {
							t.Fatalf("%s: Scan returns %d entries, err %v; want %d", when, len(res), err, len(want))
						}
					}
					verify("after the failed compaction")
					if err := compact(); err != nil {
						t.Fatalf("the same compaction without the fault: %v", err)
					}
					verify("after the compaction")
				})
			}
		}
	}
}

// TestBackgroundMaintenanceQuarantinesRot: with the background pipeline (no
// SyncFlush), a flush task whose compaction meets rot must not park the error
// in bgErr, where it would fail every later write: it quarantines the table
// and carries on.
func TestBackgroundMaintenanceQuarantinesRot(t *testing.T) {
	cfg := scrubConfig(fault.New(33))
	cfg.SyncFlush = false
	cfg.Level0OnPM, cfg.InternalCompaction = false, false // PMBlade-SSD: every fourth flush compacts level 0 into the run
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := fillSSD(t, db, 1000)
	if rotEverySST(t, db) == 0 {
		t.Fatal("no SSD tables to rot")
	}
	pad := make([]byte, 256)
	for i := 0; len(db.QuarantineRecords()) == 0; i++ {
		if i == 20000 {
			t.Fatal("20000 writes triggered no compaction over the rotted run")
		}
		k := fmt.Sprintf("key-%04d-new-%05d", i%1000, i) // inside the rotted run's range: level 0 overlaps it
		if err := db.Put([]byte(k), pad); err != nil {
			t.Fatalf("Put %d: %v (rot met by a background task must not fail writes)", i, err)
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := db.loadBgErr(); err != nil {
		t.Fatalf("rot parked in bgErr: %v", err)
	}
	if err := db.Put([]byte("after"), []byte("rot")); err != nil {
		t.Fatalf("write after the quarantine: %v", err)
	}
	for k, v := range want {
		got, ok, err := db.Get([]byte(k))
		if errors.Is(err, ErrUnavailable) {
			continue
		}
		if err != nil || !ok || string(got) != v {
			t.Fatalf("Get(%s) = %q, found %v, err %v; want %q or ErrUnavailable", k, got, ok, err, v)
		}
	}
}
