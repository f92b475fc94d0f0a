package engine

import (
	"bytes"
	"fmt"
	"testing"
)

// readEverything reads the whole key universe through every read API at snap's
// sequence and returns one flat transcript, so two passes compare with one
// bytes.Equal. Missing keys are part of the transcript.
func readEverything(t *testing.T, snap *Snapshot, keys [][]byte) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, k := range keys {
		v, ok, err := snap.Get(k)
		if err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
		fmt.Fprintf(&out, "get %s=%s %v\n", k, v, ok)
	}
	res, err := snap.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("MultiGet(%s): %v", keys[i], r.Err)
		}
		fmt.Fprintf(&out, "mget %s=%s %v\n", keys[i], r.Value, r.Found)
	}
	scan, err := snap.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range scan {
		fmt.Fprintf(&out, "scan %s=%s\n", r.Key, r.Value)
	}
	it, err := snap.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for ; it.Valid(); it.Next() {
		fmt.Fprintf(&out, "iter %s=%s\n", it.Key(), it.Value())
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	return out.Bytes()
}

// TestReadStateOutlivesInstalls pins one read state S0, pushes the partition
// through every kind of install (rotation, flush, internal / major / leveled
// compaction), and checks the three promises of the one-state design in every
// engine mode, on a single goroutine:
//
//   - reads through S0 and through the fresh state, at the same pinned
//     sequence, return identical full results from Get, MultiGet, Scan and
//     Iterator;
//   - every SSD file S0 lists exists until S0 is released, and the space of
//     the replaced ones is returned the moment it is;
//   - the range view belongs to the stable half: the same object after a
//     rotation+flush, a different (already rebuilt) one after a compaction.
func TestReadStateOutlivesInstalls(t *testing.T) {
	for name, cfg := range allModeConfigs() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			cfg.SyncFlush = true
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			p := db.partitions[0]
			put := func(i int, gen string) {
				t.Helper()
				if err := db.Put(key6(i), []byte(fmt.Sprintf("%s-%06d", gen, i))); err != nil {
					t.Fatal(err)
				}
			}
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			const n = 1200
			keys := make([][]byte, 0, n+1)
			for i := 0; i < n; i++ {
				keys = append(keys, key6(i))
			}
			keys = append(keys, []byte("missing"))

			// Base data in the stable half: several flush rounds so leveled
			// mode crosses its L0 trigger, then a major compaction.
			for round := 0; round < 5; round++ {
				for i := round; i < n; i += 5 {
					put(i, "base")
				}
				must(db.FlushAll())
			}
			must(db.MajorCompactAll())
			// Overlay on top, then the pinned point in time.
			for i := 0; i < n; i += 7 {
				put(i, "over")
			}
			for i := 3; i < n; i += 11 {
				must(db.Delete(key6(i)))
			}
			snap, err := db.NewSnapshot()
			must(err)
			defer snap.Close()
			scanAll(t, db) // builds the view of the current stable half

			s0 := p.acquire()
			released := false
			defer func() {
				if !released {
					s0.release()
				}
			}()
			v0 := s0.view.Load()
			if v0 == nil {
				t.Fatal("scan over a non-empty stable half built no view")
			}
			if len(s0.ssts()) == 0 {
				t.Fatal("S0 lists no SSD table; the test would not exercise table lifetime")
			}

			// Rotation + flush touch only the overlay: same stable half, same
			// view object, no rebuild.
			builds := db.metrics.RangeViewBuilds.Load()
			db.turn(func() { p.rotate(0) })
			p.maint.Lock()
			err = db.flushImmutables(p)
			p.maint.Unlock()
			must(err)
			if cur := p.state.Load(); cur == s0 || cur.stableHalf != s0.stableHalf || cur.view.Load() != v0 {
				t.Fatal("rotation+flush did not carry the stable half and its view over unchanged")
			}
			if len(p.state.Load().imm) != 0 || len(s0.imm) != 0 || s0.mem.Empty() {
				t.Fatal("flush install and S0 disagree with what they should list")
			}
			if got := db.metrics.RangeViewBuilds.Load(); got != builds {
				t.Fatalf("rotation+flush rebuilt the view (%d -> %d builds)", builds, got)
			}

			// Writes after the pin (invisible to it), then every compaction
			// the mode has.
			for i := 0; i < n; i += 3 {
				put(i, "late")
			}
			must(db.FlushAll())
			must(db.InternalCompactAll())
			must(db.MajorCompactAll())
			if cfg.L1TargetBytes > 0 {
				for round := 0; round < 2; round++ {
					for i := round; i < n; i += 2 {
						put(i, "later")
					}
					must(db.FlushAll())
				}
				p.maint.Lock()
				err = db.compactToSSD(p, leveledStep(p.tree, 0))
				p.maint.Unlock()
				must(err)
				_, err := db.installManifest(0)
				must(err)
			}
			cur := p.state.Load()
			if cur.stableHalf == s0.stableHalf {
				t.Fatal("compaction left the stable half in place")
			}
			if v := cur.view.Load(); v == nil || v == v0 {
				t.Fatalf("compaction install must leave a freshly built view in place, got %p (old %p)", v, v0)
			}

			// S0's files all still exist, although compaction replaced some
			// and the manifest install dropped their owner references.
			replaced := 0
			live := map[uint64]bool{}
			for _, tbl := range cur.ssts() {
				live[uint64(tbl.File())] = true
			}
			for _, tbl := range s0.ssts() {
				if db.ssd.Size(tbl.File()) < 0 {
					t.Fatalf("file %d listed by a held state was deleted", tbl.File())
				}
				if !live[uint64(tbl.File())] {
					replaced++
				}
			}
			if replaced == 0 {
				t.Fatal("no table of S0 was replaced; the test would not exercise table lifetime")
			}

			// Same pinned sequence, two states, identical answers. Reading
			// "through S0" means S0 is what acquire hands out.
			fresh := readEverything(t, snap, keys)
			p.state.Store(s0)
			through := readEverything(t, snap, keys)
			p.state.Store(cur)
			if !bytes.Equal(through, fresh) {
				t.Fatalf("reads through the held state differ from reads through the fresh one at seq %d\nheld:\n%.400s\nfresh:\n%.400s", snap.Seq(), through, fresh)
			}
			if !bytes.Contains(fresh, []byte("=over-")) || !bytes.Contains(fresh, []byte("=base-")) || bytes.Contains(fresh, []byte("=late")) {
				t.Fatal("pinned reads do not show the overlay-over-base picture they were set up to show")
			}

			// The last reference returns the replaced tables' space at once.
			used := db.ssd.UsedBytes()
			s0.release()
			released = true
			if got := db.ssd.UsedBytes(); got >= used {
				t.Fatalf("releasing the last reference freed nothing: %d -> %d bytes", used, got)
			}
			for _, tbl := range s0.ssts() {
				if !live[uint64(tbl.File())] && db.ssd.Size(tbl.File()) >= 0 {
					t.Fatalf("replaced file %d outlived its last reader", tbl.File())
				}
			}
		})
	}
}
