package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pmblade/internal/device"
	"pmblade/internal/fault"
	"pmblade/internal/kv"
	"pmblade/internal/pmem"
	"pmblade/internal/ssd"
	"pmblade/internal/wal"
)

// TestFailedCheckpointLosesNothing: a Checkpoint whose manifest install fails
// without a power cut must leave the engine logging to a WAL the installed
// manifest names. Every op of both installs is failed in turn; after the
// error a Put is acknowledged, and a crash right behind it must keep it.
func TestFailedCheckpointLosesNothing(t *testing.T) {
	ops := []struct {
		name string
		arm  func(in *fault.Injector, hit int)
	}{
		{"append", func(in *fault.Injector, hit int) {
			in.FailOp(fault.SSDAppend, device.CauseManifest, hit, fault.Decision{Err: fault.ErrPermanent})
		}},
		{"sync", func(in *fault.Injector, hit int) {
			// The checkpoint's destage of the log tail syncs the old log
			// file first.
			in.FailOp(fault.SSDSync, device.CauseUnknown, hit+1, fault.Decision{Err: fault.ErrPermanent})
		}},
		{"setroot", func(in *fault.Injector, hit int) {
			in.FailPoint(fault.SSDRoot, hit, fault.Decision{Err: fault.ErrPermanent})
		}},
	}
	// The rules count from here on, and nothing between the fill and the
	// second install syncs or roots anything else (50 keys flush to one PM
	// table), bar the destage: hit 1 is the bridging manifest's op, hit 2 the
	// final one's.
	for i, install := range []string{"bridging", "final"} {
		hit := i + 1
		for _, op := range ops {
			t.Run(install+"/"+op.name, func(t *testing.T) {
				in := fault.New(41)
				db, err := Open(faultConfig(in))
				if err != nil {
					t.Fatal(err)
				}
				want := fillKeys(t, db, 50)
				files := len(db.SSDDevice().Files())
				op.arm(in, hit)
				if _, err := db.Checkpoint(); !errors.Is(err, fault.ErrPermanent) {
					t.Fatalf("Checkpoint = %v, want the injected failure", err)
				}
				if install == "bridging" {
					if got := len(db.SSDDevice().Files()); got != files {
						t.Fatalf("%d files on the SSD after the failed switch, %d before: the fresh log or the failed manifest is still there", got, files)
					}
				}
				if err := db.Put([]byte("after"), []byte("acked")); err != nil {
					t.Fatalf("Put after the failed checkpoint: %v", err)
				}
				want["after"] = "acked"
				recoverImage(t, db, want).Close()

				// The failure was one-shot: the next checkpoint goes through, and
				// a crash behind it still finds everything.
				if _, err := db.Checkpoint(); err != nil {
					t.Fatalf("Checkpoint after the failure cleared: %v", err)
				}
				if err := db.Put([]byte("later"), []byte("acked")); err != nil {
					t.Fatal(err)
				}
				want["later"] = "acked"
				recoverImage(t, db, want).Close()
				db.Close()
			})
		}
	}
}

// rotTable rots one byte of the live table tg names where a scrub is sure to
// find it and no read can be served a wrong value from it: anywhere in an SSD
// table's data blocks (a block is CRC-checked whenever it is read), but only
// in the checksum itself of a PM image (whose entries decode unchecked).
func rotTable(t *testing.T, db *DB, tg RotTarget) {
	t.Helper()
	var err error
	if tg.Device == device.PM {
		_, err = db.PMDevice().Rot(pmem.Addr(tg.ID), tg.Limit-4, 4)
	} else {
		_, err = db.SSDDevice().Rot(ssd.FileID(tg.ID), 0, tg.Limit)
	}
	if err != nil {
		t.Fatalf("rot %s %d: %v", tg.Device, tg.ID, err)
	}
}

// soleTable fills db with n keys, pushes them into one table on dev and
// returns the keys' values and the table.
func soleTable(t *testing.T, db *DB, dev device.Class, n int) (map[string]string, RotTarget) {
	t.Helper()
	want := fillKeys(t, db, n)
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if dev == device.SSD {
		if err := db.MajorCompactAll(); err != nil {
			t.Fatal(err)
		}
	}
	tgs := db.RotTargets()
	if len(tgs) != 1 || tgs[0].Device != dev {
		t.Fatalf("rot targets %+v, want one %s table", tgs, dev)
	}
	return want, tgs[0]
}

// TestQuarantineNeverLiesMidDetach: readers spin Get, MultiGet and Scan on
// acked keys while their only table — rotted — is quarantined under them, by
// a scrub pass or by the read path's heal. Every answer is the value or
// ErrUnavailable: never a not-found, never a short scan, whatever instant of
// the quarantine a reader lands in. One body for both devices; only the
// device whose table rots differs. (Before the two quarantine sequences
// became one, the PM one detached before it published the range, and 183 of
// 600 of these rounds on 2 vCPU answered not-found — 40 rounds miss that with
// probability 4e-6; on one P no reader is preempted inside the window and the
// test proves nothing. The SSD one could hand a reader the raw corruption when
// two detections raced.)
func TestQuarantineNeverLiesMidDetach(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	const n = 16
	for _, dev := range []device.Class{device.PM, device.SSD} {
		for _, how := range []string{"scrub", "heal"} {
			t.Run(string(dev)+"/"+how, func(t *testing.T) {
				for round := 0; round < rounds && !t.Failed(); round++ {
					quarantineUnderReaders(t, dev, how == "scrub", n, int64(round))
				}
			})
		}
	}
}

func quarantineUnderReaders(t *testing.T, dev device.Class, byScrub bool, n int, seed int64) {
	db, err := Open(scrubConfig(fault.New(seed)))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want, tg := soleTable(t, db, dev, n)
	rotTable(t, db, tg)

	keys := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		keys = append(keys, []byte(fmt.Sprintf("key-%04d", i)))
	}
	var stop atomic.Bool
	var spins [2]atomic.Int64
	var wg sync.WaitGroup
	reader := func(id int, read func(i int) error) {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if err := read(i); err != nil {
				t.Error(err)
				return
			}
			spins[id].Add(1)
			runtime.Gosched() // on one P, a round is then not three time slices long
		}
	}
	judge := func(what string, k, v []byte, found bool, err error) error {
		if errors.Is(err, ErrUnavailable) || (err == nil && found && string(v) == want[string(k)]) {
			return nil
		}
		return fmt.Errorf("%s(%s) = %q, found %v, err %v; want %q or ErrUnavailable", what, k, v, found, err, want[string(k)])
	}
	wg.Add(2)
	go reader(0, func(i int) error {
		k := keys[i%n]
		v, ok, err := db.Get(k)
		return judge("Get", k, v, ok, err)
	})
	go reader(1, func(i int) error {
		if i%2 == 0 {
			res, err := db.MultiGet(keys)
			if err != nil {
				return err
			}
			for j, r := range res {
				if err := judge("MultiGet", keys[j], r.Value, r.Found, r.Err); err != nil {
					return err
				}
			}
			return nil
		}
		res, err := db.Scan(nil, nil, 0)
		if errors.Is(err, ErrUnavailable) {
			return nil
		}
		if err != nil || len(res) != n {
			return fmt.Errorf("Scan = %d entries, err %v; want all %d or ErrUnavailable", len(res), err, n)
		}
		for _, r := range res {
			if err := judge("Scan", r.Key, r.Value, true, nil); err != nil {
				return err
			}
		}
		return nil
	})
	// Quarantine once both readers are in their stride.
	for (spins[0].Load() < 20 || spins[1].Load() < 4) && !t.Failed() {
		runtime.Gosched()
	}
	if byScrub {
		if _, err := db.ScrubOnce(); err != nil {
			t.Error(err)
		}
	} else {
		db.healCorruption(db.partitions[tg.Partition], &device.CorruptionError{Class: tg.Device, ID: tg.ID, Detail: "test"})
	}
	for base := spins[0].Load(); spins[0].Load() < base+20 && !t.Failed(); {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	if recs := db.QuarantineRecords(); len(recs) != 1 || recs[0].Device != tg.Device || recs[0].ID != tg.ID {
		t.Fatalf("quarantine records %+v, want the rotted %s table %d", recs, tg.Device, tg.ID)
	}
}

// TestRepairNeverLiesToAHeldState: a reader that acquired a partition's state
// before RepairQuarantined resolves every key against that state afterwards,
// the way get does — lookup, then the state's own quarantine verdict. It may
// answer ErrUnavailable, but never a clean not-found for a key the repair
// salvaged. (When the corpses left the read path after the rebuilt tables had
// been installed, through a second pointer, 200 of these 300 keys read
// not-found from the held state while Get found them.)
func TestRepairNeverLiesToAHeldState(t *testing.T) {
	db, err := Open(scrubConfig(fault.New(25)))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := fillSSD(t, db, 300)
	if rotEverySST(t, db) == 0 {
		t.Fatal("no SSD tables to rot")
	}
	if _, err := db.ScrubOnce(); err != nil {
		t.Fatal(err)
	}
	held := make([]*readState, len(db.partitions))
	for i, p := range db.partitions {
		held[i] = p.acquire()
	}
	defer func() {
		for _, s := range held {
			s.release()
		}
	}()
	if err := db.RepairQuarantined(); err != nil {
		t.Fatal(err)
	}
	seq := db.beginRead()
	defer db.endRead(seq)
	lies, salvaged := 0, 0
	for k := range want {
		key := []byte(k)
		s := held[db.route(key).id]
		e, tier, err := db.lookup(s, key, seq)
		if err != nil {
			t.Fatalf("lookup(%s) in the held state: %v", k, err)
		}
		_, now, err := db.Get(key)
		if err != nil {
			t.Fatalf("Get(%s) after repair: %v", k, err)
		}
		if now {
			salvaged++
		}
		heldMiss := tier == TierMiss || e.Kind == kv.KindDelete
		if heldMiss && now && !s.quarShadowed(key, tier != TierMiss, tier) {
			lies++
		}
	}
	if salvaged == 0 {
		t.Fatal("repair salvaged nothing: the test proves nothing")
	}
	if lies != 0 {
		t.Fatalf("%d of %d keys read not-found in the state held across repair, found by Get after it (%d salvaged)", lies, len(want), salvaged)
	}
}

// strays lists the SSD files that nothing accounts for: not a table of a
// live set, not the log, not a manifest.
func strays(t *testing.T, db *DB) []ssd.FileID {
	t.Helper()
	known := map[ssd.FileID]bool{}
	if db.wal != nil {
		known[db.wal.File()] = true
	}
	for _, p := range db.partitions {
		for _, tbl := range p.state.Load().ssts() {
			known[tbl.File()] = true
		}
	}
	var out []ssd.FileID
	head := make([]byte, len(manifestMagic))
	for _, f := range db.ssd.Files() {
		if known[f] {
			continue
		}
		if db.ssd.Size(f) >= int64(len(head)) {
			if err := db.ssd.ReadAt(f, 0, head, device.CauseUnknown); err != nil {
				t.Fatal(err)
			}
			if string(head) == manifestMagic {
				continue
			}
		}
		out = append(out, f)
	}
	return out
}

// livePM is what the PM device must report in use when nothing but the live
// level-0 tables and the log tail holds a region.
func livePM(db *DB) int64 {
	var n int64
	if db.walTail != nil {
		n = wal.TailBytes
	}
	for _, p := range db.partitions {
		for _, tbl := range p.state.Load().pmTables() {
			n += (tbl.SizeBytes() + pmem.LineSize - 1) / pmem.LineSize * pmem.LineSize
		}
	}
	return n
}

// TestCorpseLifecycle walks one table through the whole of it — rot, detection
// (by scrub and inline by a read), quarantine, a crash and restart that
// re-establishes the quarantine, repair, release — for a table on either
// device, with and without a WAL. The same assertions hold throughout: reads
// never lie, the registry names exactly the corpse, its storage is held while
// it is quarantined and given back exactly once when it is repaired, and the
// retirement queue is empty after every manifest install.
func TestCorpseLifecycle(t *testing.T) {
	const n = 72 // the PM structural rot below assumes a 72-entry image
	for _, dev := range []device.Class{device.PM, device.SSD} {
		for _, noWAL := range []bool{false, true} {
			for _, detect := range []string{"scrub", "inline"} {
				name := fmt.Sprintf("%s/wal=%v/%s", dev, !noWAL, detect)
				t.Run(name, func(t *testing.T) {
					config := func(in *fault.Injector) Config {
						cfg := scrubConfig(in)
						cfg.DisableWAL = noWAL
						return cfg
					}
					db, err := Open(config(fault.New(43)))
					if err != nil {
						t.Fatal(err)
					}
					defer func() { db.Close() }()
					want, tg := soleTable(t, db, dev, n)
					if !noWAL {
						// Truncate the log, or the restart would serve every
						// key from the replayed memtable.
						if _, err := db.Checkpoint(); err != nil {
							t.Fatal(err)
						}
					}
					held := func(db *DB) bool {
						if dev == device.PM {
							return db.pm.Size(pmem.Addr(tg.ID)) >= 0
						}
						return db.ssd.Size(ssd.FileID(tg.ID)) >= 0
					}
					// sound checks what holds at every stage: reads answer
					// with the value, or with ErrUnavailable while the corpse
					// is registered (at least once then) and with not-found
					// after the loss is acknowledged; the queue is drained;
					// every region and file is a live table's or the corpse's.
					const live, corpse, gone = "live", "quarantined", "repaired"
					sound := func(stage string, db *DB, state string) {
						t.Helper()
						quarantined, repaired := state == corpse, state == gone
						unavailable := 0
						for k, v := range want {
							got, ok, err := db.Get([]byte(k))
							switch {
							case quarantined && errors.Is(err, ErrUnavailable):
								unavailable++
							case err == nil && ok && string(got) == v:
							case err == nil && !ok && repaired:
							default:
								t.Fatalf("%s: Get(%s) = %q, found %v, err %v", stage, k, got, ok, err)
							}
						}
						if quarantined && unavailable == 0 {
							t.Fatalf("%s: no key is unavailable", stage)
						}
						recs := db.QuarantineRecords()
						if quarantined && (len(recs) != 1 || recs[0].Device != tg.Device || recs[0].ID != tg.ID || recs[0].Partition != tg.Partition) {
							t.Fatalf("%s: quarantine records %+v, want the %s table %d", stage, recs, tg.Device, tg.ID)
						}
						if !quarantined && len(recs) != 0 {
							t.Fatalf("%s: quarantine records %+v, want none", stage, recs)
						}
						if got := db.metrics.QuarantinedNow.Load(); got != int64(len(recs)) {
							t.Fatalf("%s: QuarantinedNow = %d with %d records", stage, got, len(recs))
						}
						if held(db) == repaired {
							t.Fatalf("%s: corpse storage held = %v", stage, held(db))
						}
						db.obsoleteMu.Lock()
						queued := len(db.obsolete)
						db.obsoleteMu.Unlock()
						if queued != 0 {
							t.Fatalf("%s: %d entries in the retirement queue after the install", stage, queued)
						}
						var corpsePM int64
						if dev == device.PM && quarantined {
							corpsePM = (tg.Limit + pmem.LineSize - 1) / pmem.LineSize * pmem.LineSize
						}
						if got, live := db.pm.Used(), livePM(db); got != live+corpsePM {
							t.Fatalf("%s: PM reports %d bytes in use, live tables hold %d and the corpse %d", stage, got, live, corpsePM)
						}
						stray := strays(t, db)
						switch {
						case dev == device.SSD && quarantined:
							if len(stray) != 1 || stray[0] != ssd.FileID(tg.ID) {
								t.Fatalf("%s: unaccounted SSD files %v, want the corpse %d alone", stage, stray, tg.ID)
							}
						case len(stray) != 0:
							t.Fatalf("%s: unaccounted SSD files %v", stage, stray)
						}
					}
					sound("clean", db, live)

					if detect == "scrub" {
						rotTable(t, db, tg)
						incidents, err := db.ScrubOnce()
						if err != nil {
							t.Fatal(err)
						}
						if len(incidents) != 1 || incidents[0].Device != tg.Device || incidents[0].ID != tg.ID {
							t.Fatalf("scrub incidents %+v, want one on the %s table %d", incidents, tg.Device, tg.ID)
						}
					} else {
						// A read has to trip over it: any data byte of the SSD
						// table's one block, and on PM the dictionary index
						// that opens the image's entry layer (the layout is
						// TestCorruptPMTableIsQuarantinedNotSkipped's).
						if dev == device.PM {
							if err := db.pm.WriteAt(pmem.Addr(tg.ID), 512, []byte{0xff}, device.CauseUnknown); err != nil {
								t.Fatal(err)
							}
						} else {
							rotTable(t, db, tg)
							db.cache.DropFile(ssd.FileID(tg.ID)) // the clean sweep cached the block
						}
						if _, _, err := db.Get([]byte("key-0000")); !errors.Is(err, ErrUnavailable) {
							t.Fatalf("Get over the rot: %v, want ErrUnavailable", err)
						}
					}
					sound("quarantined", db, corpse)

					if !noWAL {
						re, err := RecoverCurrent(config(nil), db.pm.CrashImage(nil), db.ssd.CrashImage(nil))
						if err != nil {
							t.Fatalf("restart under quarantine: %v", err)
						}
						db.Close()
						db = re
						sound("restarted", db, corpse)
					}

					passes := db.metrics.MajorCount.Load()
					if err := db.RepairQuarantined(); err != nil {
						t.Fatal(err)
					}
					sound("repaired", db, gone)
					if got := db.metrics.RepairTablesRetired.Load(); got != 1 {
						t.Fatalf("RepairTablesRetired = %d, want 1", got)
					}
					if rebuilt := db.metrics.MajorCount.Load() > passes; rebuilt != (dev == device.SSD) {
						t.Fatalf("repair rebuilt the partition: %v, for a %s corpse", rebuilt, dev)
					}

					pmUsed, ssdUsed := db.pm.Used(), db.ssd.UsedBytes()
					if err := db.RepairQuarantined(); err != nil {
						t.Fatal(err)
					}
					sound("repaired twice", db, gone)
					if db.pm.Used() != pmUsed || db.ssd.UsedBytes() != ssdUsed || db.metrics.RepairTablesRetired.Load() != 1 {
						t.Fatalf("a second repair was not a no-op: PM %d -> %d, SSD %d -> %d, retired %d",
							pmUsed, db.pm.Used(), ssdUsed, db.ssd.UsedBytes(), db.metrics.RepairTablesRetired.Load())
					}
				})
			}
		}
	}
}

// TestLeveledRepairSalvagesOverDeeperLevels: in a leveled layout a level-1
// table holds the newest versions of keys a level-2 table also holds. When
// one of the level-1 table's blocks rots, scrub quarantines the table and
// repair must rebuild the partition from everything that is left, the corpse's
// intact blocks included: their keys keep reading the newest version, and only
// the keys of the rotted block revert to the older version below. A repair
// that drops the salvage and retires the corpse serves the older version for
// every key the corpse held.
func TestLeveledRepairSalvagesOverDeeperLevels(t *testing.T) {
	cfg := scrubConfig(fault.New(47))
	cfg.Level0OnPM, cfg.InternalCompaction, cfg.CostBased = false, false, false
	cfg.L1TargetBytes = 1 << 30   // no level is ever over its target
	cfg.L0TriggerTables = 1 << 20 // every step below is driven by hand
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p := db.partitions[0]
	step := func(level int) {
		t.Helper()
		if err := db.maintain(p, func() error { return db.compactToSSD(p, leveledStep(p.tree, level)) }); err != nil {
			t.Fatal(err)
		}
	}
	const n = 200
	value := func(gen, i int) string { return fmt.Sprintf("gen%d-%04d-%0100d", gen, i, 0) }
	write := func(gen int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(value(gen, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	write(1)
	step(0)
	step(1) // generation 1 in level 2
	write(2)
	step(0) // generation 2 in level 1
	if _, err := db.installManifest(0); err != nil {
		t.Fatal(err)
	}
	if len(p.tree.L0Tables()) != 0 || p.tree.Run(1).Len() != 1 || p.tree.Run(2).Len() != 1 {
		t.Fatalf("setup: %d level-0, %d level-1, %d level-2 tables, want 0, 1, 1",
			len(p.tree.L0Tables()), p.tree.Run(1).Len(), p.tree.Run(2).Len())
	}
	l1 := p.tree.Run(1).Tables()[0]
	rotTable(t, db, RotTarget{Device: device.SSD, ID: uint64(l1.File()), Limit: l1.DataBytes()})

	// What the corpse's checksums still vouch for, read before the scrub.
	intact := map[string]bool{}
	it := l1.NewSalvageIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		intact[string(it.Entry().Key)] = true
	}
	if it.Err() != nil || it.Skipped() != 1 || len(intact) == 0 || len(intact) == n {
		t.Fatalf("setup: salvage kept %d of %d keys, skipped %d blocks, err %v; want one rotted block of several",
			len(intact), n, it.Skipped(), it.Err())
	}

	incidents, err := db.ScrubOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(incidents) != 1 || incidents[0].ID != uint64(l1.File()) {
		t.Fatalf("scrub incidents %+v, want one on the level-1 table %d", incidents, l1.File())
	}
	if err := db.RepairQuarantined(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%04d", i)
		want := value(1, i) // the documented revert: the next older version
		if intact[k] {
			want = value(2, i)
		}
		if got, ok, err := db.Get([]byte(k)); err != nil || !ok || string(got) != want {
			t.Fatalf("after repair Get(%s) = %q, found %v, err %v; want %q", k, got, ok, err, want)
		}
	}
	if recs := db.QuarantineRecords(); len(recs) != 0 {
		t.Fatalf("quarantine records %+v after repair", recs)
	}
	if got := db.metrics.RepairBlocksSkipped.Load(); got != 1 {
		t.Fatalf("RepairBlocksSkipped = %d, want 1", got)
	}
	checkTierOrder(t, db, false)
	if stray := strays(t, db); len(stray) != 0 {
		t.Fatalf("unaccounted SSD files after repair: %v", stray)
	}
}
