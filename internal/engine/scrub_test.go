package engine

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pmblade/internal/fault"
	"pmblade/internal/pmem"
	"pmblade/internal/ssd"
)

// scrubConfig is faultConfig with a block cache — the cache-vs-quarantine
// interaction is part of what these tests pin down.
func scrubConfig(in *fault.Injector) Config {
	cfg := faultConfig(in)
	cfg.BlockCacheBytes = 1 << 20
	return cfg
}

// fillSSD writes n keys and forces them all down to the SSD tier.
func fillSSD(t *testing.T, db *DB, n int) map[string]string {
	t.Helper()
	want := fillKeys(t, db, n)
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := db.MajorCompactAll(); err != nil {
		t.Fatal(err)
	}
	return want
}

// rotEverySST flips one seeded byte in every live SSD table and returns how
// many tables were hit.
func rotEverySST(t *testing.T, db *DB) int {
	t.Helper()
	return rotSSTs(t, db, -1)
}

// rotSSTs is rotEverySST restricted to one partition's tables (-1 = all).
func rotSSTs(t *testing.T, db *DB, partition int) int {
	t.Helper()
	hit := 0
	for _, tg := range db.RotTargets() {
		if tg.Device != "ssd" || (partition >= 0 && tg.Partition != partition) {
			continue
		}
		if _, err := db.SSDDevice().Rot(ssd.FileID(tg.ID), 0, tg.Limit); err != nil {
			t.Fatalf("rot ssd %d: %v", tg.ID, err)
		}
		hit++
	}
	return hit
}

// TestScrubCleanStore: a scrub pass over an intact store reports nothing and
// quarantines nothing.
func TestScrubCleanStore(t *testing.T) {
	db, err := Open(scrubConfig(fault.New(21)))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := fillSSD(t, db, 300)
	incidents, err := db.ScrubOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(incidents) != 0 {
		t.Fatalf("clean store produced %d incidents (first: %+v)", len(incidents), incidents[0])
	}
	if n := db.Metrics().ScrubTables.Load(); n == 0 {
		t.Fatal("scrub pass verified no tables")
	}
	if got := len(db.QuarantineRecords()); got != 0 {
		t.Fatalf("clean scrub quarantined %d tables", got)
	}
	for k, v := range want {
		got, ok, err := db.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("Get(%s) after clean scrub = (%q, %v, %v)", k, got, ok, err)
		}
	}
}

// TestScrubQuarantinesRottedSSD is the cache-vs-corruption regression
// (satellite c, run under -race in CI): a key served from the SSD run is
// cached, the underlying block rots, the scrub quarantines the table — and
// the read path must NOT serve the stale cached block afterwards. Every key
// resolves to ErrUnavailable, never to a value backed by a corpse.
func TestScrubQuarantinesRottedSSD(t *testing.T) {
	db, err := Open(scrubConfig(fault.New(22)))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := fillSSD(t, db, 300)

	// Warm the block cache: every key now has its block resident.
	for k, v := range want {
		got, ok, gerr := db.Get([]byte(k))
		if gerr != nil || !ok || string(got) != v {
			t.Fatalf("warm Get(%s) = (%q, %v, %v)", k, got, ok, gerr)
		}
	}

	if rotEverySST(t, db) == 0 {
		t.Fatal("no SSD tables to rot")
	}
	incidents, err := db.ScrubOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(incidents) == 0 {
		t.Fatal("scrub missed at-rest rot (cache must not mask the device)")
	}
	recs := db.QuarantineRecords()
	if len(recs) == 0 {
		t.Fatal("detection did not quarantine")
	}
	if db.Metrics().QuarantinedNow.Load() != int64(len(recs)) {
		t.Fatalf("gauge %d != records %d", db.Metrics().QuarantinedNow.Load(), len(recs))
	}

	// The cached copies of the quarantined blocks must be unreachable: keys
	// held only by quarantined tables fail instead of reading stale cache.
	unavailable := 0
	for k := range want {
		_, ok, gerr := db.Get([]byte(k))
		switch {
		case errors.Is(gerr, ErrUnavailable):
			unavailable++
		case gerr != nil:
			t.Fatalf("Get(%s): unexpected error %v", k, gerr)
		case ok:
			t.Fatalf("Get(%s) served a value after its only table was quarantined (stale cache?)", k)
		}
	}
	if unavailable == 0 {
		t.Fatal("no key reported ErrUnavailable with every SSD table quarantined")
	}
	if db.Metrics().UnavailableReads.Load() == 0 {
		t.Fatal("UnavailableReads metric not counted")
	}

	// New writes land above the quarantine and read back immediately.
	if err := db.Put([]byte("key-0000"), []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	got, ok, gerr := db.Get([]byte("key-0000"))
	if gerr != nil || !ok || string(got) != "rewritten" {
		t.Fatalf("overwrite of unavailable key = (%q, %v, %v)", got, ok, gerr)
	}
}

// TestReadPathHealsCorruption exercises the inline (non-scrub) detection: a
// read that trips over a corrupt SSD block quarantines the table itself and
// the engine keeps serving without a scrub pass ever running.
func TestReadPathHealsCorruption(t *testing.T) {
	db, err := Open(scrubConfig(fault.New(23)))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := fillSSD(t, db, 300)
	if rotEverySST(t, db) == 0 {
		t.Fatal("no SSD tables to rot")
	}
	// No ScrubOnce: reads must detect, quarantine, and degrade to
	// ErrUnavailable on their own. Not every read hits a corrupt byte (only
	// corrupt blocks fail their CRC), so walk all keys.
	for k, v := range want {
		got, ok, gerr := db.Get([]byte(k))
		switch {
		case errors.Is(gerr, ErrUnavailable):
		case gerr != nil:
			t.Fatalf("Get(%s): unexpected error %v", k, gerr)
		case ok && string(got) != v:
			t.Fatalf("Get(%s) = %q, want %q (corrupt data served)", k, got, v)
		}
	}
	if len(db.QuarantineRecords()) == 0 {
		t.Fatal("inline reads never quarantined a corrupt table")
	}
	if db.Metrics().QuarantineIncidents.Load() == 0 {
		t.Fatal("QuarantineIncidents not counted")
	}
}

// TestScrubQuarantinesRottedPM: PM tables are covered by a whole-image
// checksum that only Verify/scrub re-checks — the scrub is the ONLY latent
// detection there, so a rotted PM image must be found and quarantined.
func TestScrubQuarantinesRottedPM(t *testing.T) {
	db, err := Open(scrubConfig(fault.New(24)))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := fillKeys(t, db, 200)
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	rotted := 0
	for _, tg := range db.RotTargets() {
		if tg.Device != "pm" {
			continue
		}
		if _, err := db.PMDevice().Rot(pmem.Addr(tg.ID), 0, tg.Limit); err != nil {
			t.Fatalf("rot pm %d: %v", tg.ID, err)
		}
		rotted++
	}
	if rotted == 0 {
		t.Fatal("no PM tables to rot (flush produced none?)")
	}
	incidents, err := db.ScrubOnce()
	if err != nil {
		t.Fatal(err)
	}
	pmIncidents := 0
	for _, inc := range incidents {
		if inc.Device == "pm" {
			pmIncidents++
		}
	}
	if pmIncidents != rotted {
		t.Fatalf("rotted %d PM images, scrub found %d", rotted, pmIncidents)
	}
	for k, v := range want {
		got, ok, gerr := db.Get([]byte(k))
		switch {
		case errors.Is(gerr, ErrUnavailable):
		case gerr != nil:
			t.Fatalf("Get(%s): unexpected error %v", k, gerr)
		case ok && string(got) != v:
			t.Fatalf("Get(%s) = %q, want %q", k, got, v)
		case !ok:
			t.Fatalf("Get(%s): silent not-found for an acked key", k)
		}
	}
}

// TestRepairQuarantined: repair drains the registry, restores error-free
// reads, and salvages every key whose block survived. With a single rotted
// byte, all but one block of the table is intact — most keys come back.
func TestRepairQuarantined(t *testing.T) {
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
	if len(db.QuarantineRecords()) == 0 {
		t.Fatal("nothing quarantined")
	}
	if err := db.RepairQuarantined(); err != nil {
		t.Fatal(err)
	}
	if left := db.QuarantineRecords(); len(left) != 0 {
		t.Fatalf("repair left %d records", len(left))
	}
	if db.Metrics().QuarantinedNow.Load() != 0 {
		t.Fatalf("gauge %d after full repair", db.Metrics().QuarantinedNow.Load())
	}
	salvaged, lost := 0, 0
	for k, v := range want {
		got, ok, gerr := db.Get([]byte(k))
		if gerr != nil {
			t.Fatalf("Get(%s) after repair: %v (repair must restore readability)", k, gerr)
		}
		switch {
		case ok && string(got) == v:
			salvaged++
		case ok:
			t.Fatalf("Get(%s) = %q after repair, want %q", k, got, v)
		default:
			lost++ // its block rotted: loss acknowledged, not hidden
		}
	}
	if salvaged == 0 {
		t.Fatalf("salvage recovered nothing (%d lost)", lost)
	}
	// One rotted byte corrupts one block per table; everything else returns.
	if lost > salvaged {
		t.Fatalf("salvage lost more than it saved: %d lost, %d salvaged", lost, salvaged)
	}
	incidents, err := db.ScrubOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(incidents) != 0 {
		t.Fatalf("post-repair scrub found %d incidents", len(incidents))
	}
}

// TestQuarantineSurvivesRestart: the manifest carries the quarantine across
// a clean restart — a corrupt table must not be resurrected into the live
// set, and repair still works on the recovered engine.
func TestQuarantineSurvivesRestart(t *testing.T) {
	db, err := Open(scrubConfig(fault.New(26)))
	if err != nil {
		t.Fatal(err)
	}
	want := fillSSD(t, db, 300)
	// Truncate the WAL: without this, recovery would replay every put into
	// the memtable and legitimately serve all keys from there.
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if rotEverySST(t, db) == 0 {
		t.Fatal("no SSD tables to rot")
	}
	if _, err := db.ScrubOnce(); err != nil {
		t.Fatal(err)
	}
	before := db.QuarantineRecords()
	if len(before) == 0 {
		t.Fatal("nothing quarantined")
	}
	pm, sd := db.PMDevice(), db.SSDDevice()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := RecoverCurrent(scrubConfig(nil), pm, sd)
	if err != nil {
		t.Fatalf("recovery with quarantine present: %v", err)
	}
	defer re.Close()
	after := re.QuarantineRecords()
	if len(after) != len(before) {
		t.Fatalf("restart kept %d of %d quarantine records", len(after), len(before))
	}
	// The quarantined ranges are still routed around, not silently absent.
	sawUnavailable := false
	for k, v := range want {
		got, ok, gerr := re.Get([]byte(k))
		switch {
		case errors.Is(gerr, ErrUnavailable):
			sawUnavailable = true
		case gerr != nil:
			t.Fatalf("Get(%s): %v", k, gerr)
		case ok && string(got) != v:
			t.Fatalf("Get(%s) = %q, want %q", k, got, v)
		}
	}
	if !sawUnavailable {
		t.Fatal("restarted engine forgot the unavailable ranges")
	}
	if err := re.RepairQuarantined(); err != nil {
		t.Fatal(err)
	}
	if left := re.QuarantineRecords(); len(left) != 0 {
		t.Fatalf("repair after restart left %d records", len(left))
	}
}

// TestMultiGetBlastRadius (satellite b): with one partition's tables
// quarantined, MultiGet fails exactly the keys that needed them — keys of
// the intact partition resolve normally in the same batch, and the
// top-level error stays nil.
func TestMultiGetBlastRadius(t *testing.T) {
	cfg := scrubConfig(fault.New(27))
	cfg.PartitionBoundaries = [][]byte{[]byte("key-0150")}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := fillSSD(t, db, 300)

	// Rot only the low partition's tables (fences below the boundary).
	rotted := 0
	for _, tg := range db.RotTargets() {
		if tg.Device != "ssd" {
			continue
		}
		if tg.Partition != 0 {
			continue
		}
		if _, err := db.SSDDevice().Rot(ssd.FileID(tg.ID), 0, tg.Limit); err != nil {
			t.Fatal(err)
		}
		rotted++
	}
	if rotted == 0 {
		t.Fatal("no tables in partition 0")
	}
	if _, err := db.ScrubOnce(); err != nil {
		t.Fatal(err)
	}
	for _, r := range db.QuarantineRecords() {
		if r.Partition != 0 {
			t.Fatalf("quarantine leaked into partition %d", r.Partition)
		}
	}

	keys := make([][]byte, 0, len(want))
	for i := 0; i < 300; i++ {
		keys = append(keys, []byte(fmt.Sprintf("key-%04d", i)))
	}
	res, err := db.MultiGet(keys)
	if err != nil {
		t.Fatalf("MultiGet top-level error %v (must stay per-key)", err)
	}
	failedLow, okHigh := 0, 0
	for i, r := range res {
		k := string(keys[i])
		if k < "key-0150" {
			if errors.Is(r.Err, ErrUnavailable) {
				failedLow++
			} else if r.Err != nil {
				t.Fatalf("MultiGet(%s): unexpected %v", k, r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("MultiGet(%s) in intact partition failed: %v (blast radius too wide)", k, r.Err)
		}
		if !r.Found || string(r.Value) != want[k] {
			t.Fatalf("MultiGet(%s) = (%q, %v), want %q", k, r.Value, r.Found, want[k])
		}
		okHigh++
	}
	if failedLow == 0 {
		t.Fatal("no key of the corrupt partition reported ErrUnavailable")
	}
	if okHigh != 150 {
		t.Fatalf("intact partition resolved %d/150 keys", okHigh)
	}
}

// TestBackgroundScrubLoop: with ScrubInterval set, the background loop finds
// rot without any explicit ScrubOnce call.
func TestBackgroundScrubLoop(t *testing.T) {
	cfg := scrubConfig(fault.New(28))
	cfg.ScrubInterval = time.Millisecond
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillSSD(t, db, 300)
	if rotEverySST(t, db) == 0 {
		t.Fatal("no SSD tables to rot")
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(db.QuarantineRecords()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background scrub never quarantined the rotted tables")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if db.Metrics().ScrubPasses.Load() == 0 {
		t.Fatal("ScrubPasses not counted")
	}
}

// TestScanUnavailableRange: scans overlapping a quarantined range fail
// conservatively instead of returning a silently incomplete result set, and
// the guard follows the partition walk — a scan that fills its limit (or ends)
// before the quarantined partition is served, one that reaches it fails whole.
func TestScanUnavailableRange(t *testing.T) {
	cfg := scrubConfig(fault.New(29))
	cfg.PartitionBoundaries = [][]byte{[]byte("key-0100"), []byte("key-0200")}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillSSD(t, db, 300)
	if rotSSTs(t, db, 2) == 0 { // the last partition only
		t.Fatal("no SSD tables to rot")
	}
	if _, err := db.ScrubOnce(); err != nil {
		t.Fatal(err)
	}
	if len(db.QuarantineRecords()) == 0 {
		t.Fatal("nothing quarantined")
	}
	if _, err := db.Scan([]byte("key-0000"), []byte("key-0300"), 0); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("scan over quarantined range: err=%v, want ErrUnavailable", err)
	}
	// Answered before the walk reaches the quarantined partition: by the limit,
	// or by an end bound inside the partition to its left.
	if res, err := db.Scan([]byte("key-0000"), nil, 50); err != nil || len(res) != 50 {
		t.Fatalf("scan filled by partition 0: %d results, err=%v", len(res), err)
	}
	if res, err := db.Scan([]byte("key-0050"), []byte("key-0150"), 0); err != nil || len(res) != 100 {
		t.Fatalf("scan ending inside partition 1: %d results, err=%v", len(res), err)
	}
	// 50 entries short when partition 1 runs out: the scan reaches the
	// quarantined partition and fails whole, never with the 50 it has.
	if res, err := db.Scan([]byte("key-0150"), nil, 100); !errors.Is(err, ErrUnavailable) || res != nil {
		t.Fatalf("scan reaching the quarantined partition: %d results, err=%v, want none and ErrUnavailable", len(res), err)
	}
	if err := db.RepairQuarantined(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Scan([]byte("key-0000"), []byte("key-0300"), 0); err != nil {
		t.Fatalf("scan after repair: %v", err)
	}
}

// TestSnapshotHeldAcrossRepair: repair is a compaction like any other, so
// the versions an open snapshot still reads survive it. Every key is
// overwritten after the snapshot and both versions are compacted to SSD
// before the rot; whatever repair salvages, it salvages for the snapshot too.
func TestSnapshotHeldAcrossRepair(t *testing.T) {
	db, err := Open(scrubConfig(fault.New(31)))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	old := fillKeys(t, db, 300)
	snap, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	for k := range old {
		if err := db.Put([]byte(k), []byte("new-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := db.MajorCompactAll(); err != nil {
		t.Fatal(err)
	}
	for k, v := range old {
		if got, ok, err := snap.Get([]byte(k)); err != nil || !ok || string(got) != v {
			t.Fatalf("before the rot: snapshot Get(%s) = %q,%v,%v want %q", k, got, ok, err, v)
		}
	}
	if rotEverySST(t, db) == 0 {
		t.Fatal("no SSD tables to rot")
	}
	if _, err := db.ScrubOnce(); err != nil {
		t.Fatal(err)
	}
	if err := db.RepairQuarantined(); err != nil {
		t.Fatal(err)
	}

	liveNew, snapOld := 0, 0
	for k, v := range old {
		got, ok, err := db.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%s) after repair: %v", k, err)
		}
		if ok && string(got) == "new-"+k {
			liveNew++
		}
		got, ok, err = snap.Get([]byte(k))
		switch {
		case err != nil:
			t.Fatalf("snapshot Get(%s) after repair: %v", k, err)
		case ok && string(got) != v:
			t.Fatalf("snapshot Get(%s) = %q after repair: a version written after the snapshot (want %q or not-found)", k, got, v)
		case ok:
			snapOld++
		}
	}
	if liveNew == 0 {
		t.Fatal("salvage recovered nothing")
	}
	if snapOld != liveNew {
		t.Fatalf("repair kept %d of the snapshot's versions but salvaged %d current ones", snapOld, liveNew)
	}
}

// TestDeleteUnderQuarantineStaysDeleted: no compaction of a partition may
// drop a tombstone while the partition has a quarantine record — the corpse
// waiting to be salvaged sits below every level, and repair would bring the
// deleted values back.
func TestDeleteUnderQuarantineStaysDeleted(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ssdL0   bool
		compact func(db *DB) error
	}{
		{"major/pmblade", false, (*DB).MajorCompactAll},
		{"major/pmblade-ssd", true, (*DB).MajorCompactAll},
		// The quarantine empties the run, so level-0 looks like the bottom.
		{"internal/run-quarantined", false, (*DB).InternalCompactAll},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := scrubConfig(fault.New(32))
			if tc.ssdL0 {
				cfg.Level0OnPM = false
				cfg.InternalCompaction = false
			}
			db, err := Open(cfg)
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
			if len(db.QuarantineRecords()) == 0 || len(db.partitions[0].state.Load().ssts()) != 0 {
				t.Fatal("setup: the whole SSD tier should be quarantined")
			}
			for k := range want {
				if err := db.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if err := tc.compact(db); err != nil {
				t.Fatal(err)
			}
			if err := db.RepairQuarantined(); err != nil {
				t.Fatal(err)
			}
			back := 0
			for k := range want {
				_, ok, err := db.Get([]byte(k))
				if err != nil {
					t.Fatalf("Get(%s) after repair: %v", k, err)
				}
				if ok {
					back++
				}
			}
			if back != 0 {
				t.Fatalf("%d of %d deleted keys came back after repair", back, len(want))
			}
		})
	}
}
