package engine

import (
	"errors"
	"fmt"
	"testing"

	"pmblade/internal/device"
	"pmblade/internal/fault"
	"pmblade/internal/kv"
	"pmblade/internal/pmem"
	"pmblade/internal/ssd"
	"pmblade/internal/wal"
)

// tailConfig is faultConfig with memtables large enough that nothing in these
// tests flushes: the log is the only thing that writes.
func tailConfig(in *fault.Injector) Config {
	cfg := faultConfig(in)
	cfg.MemtableBytes = 4 << 20
	return cfg
}

// imageLog replays the log the crash images of db's devices hold, as the
// manifest installed on them names it, and returns the sequences in replay
// order.
func imageLog(t *testing.T, pm *pmem.Device, sd *ssd.Device) []uint64 {
	t.Helper()
	root, ok := sd.Root(RootManifest)
	if !ok {
		t.Fatal("no manifest installed")
	}
	m, err := readManifest(sd, root)
	if err != nil {
		t.Fatal(err)
	}
	var files []ssd.FileID
	for _, f := range m.WALFiles {
		files = append(files, ssd.FileID(f))
	}
	var tail *wal.Tail
	if m.WALTail != nil {
		if tail, err = wal.OpenTail(pm, pmem.Addr(*m.WALTail)); err != nil {
			t.Fatal(err)
		}
	}
	var seqs []uint64
	if _, err := wal.ReplayLog(sd, files, tail, func(e kv.Entry) error {
		seqs = append(seqs, e.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return seqs
}

// wantOnceEach fails unless seqs is 1, 2, ..., n: every acked write replays
// exactly once, in order.
func wantOnceEach(t *testing.T, seqs []uint64, n int) {
	t.Helper()
	if len(seqs) != n {
		t.Fatalf("the log replays %d entries, want the %d acked ones once each", len(seqs), n)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("replay position %d holds seq %d, want %d", i, s, i+1)
		}
	}
}

// putKey is the i-th write of the workload these tests log.
func putKey(db *DB, i int) (k, v string, err error) {
	k, v = fmt.Sprintf("key-%05d", i), fmt.Sprintf("value-%05d", i)
	return k, v, db.Put([]byte(k), []byte(v))
}

// putUntilFail runs the workload until a put fails, at most limit of them,
// and returns the acked keys' values and the error.
func putUntilFail(t *testing.T, db *DB, limit int) (map[string]string, error) {
	t.Helper()
	want := map[string]string{}
	for i := 0; i < limit; i++ {
		k, v, err := putKey(db, i)
		if err != nil {
			return want, err
		}
		want[k] = v
	}
	t.Fatalf("%d puts and the armed fault never fired", limit)
	return nil, nil
}

// TestUnflushedWritesHoldOnlyTheTail: however many writes the log holds, its
// PM footprint is the tail's fixed region — it destages to the SSD instead of
// growing — and Eq. 3 sees none of it.
func TestUnflushedWritesHoldOnlyTheTail(t *testing.T) {
	for _, n := range []int{0, 1, 100, 5000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			db, err := Open(tailConfig(nil))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for i := 0; i < n; i++ {
				if err := db.Put(key6(i), []byte("value")); err != nil {
					t.Fatal(err)
				}
			}
			if db.Metrics().FlushCount.Load() != 0 {
				t.Fatal("setup: a memtable flushed")
			}
			if used := db.PMUsed(); used != wal.TailBytes || db.level0PM() != 0 {
				t.Fatalf("after %d unflushed writes PM holds %d bytes (level-0 %d), want the %d-byte tail alone",
					n, used, db.level0PM(), wal.TailBytes)
			}
			if got := liveLog(t, db); got != n {
				t.Fatalf("the log holds %d of %d writes", got, n)
			}
		})
	}
}

// TestWriteAmpLeavesTheLogOut: the log's writes on either device stay out of
// the per-device figures — PMBytes has none of the tail's, SSDBytes minus
// SSDWALBytes none of the files' — and ByCause["wal"] has both.
func TestWriteAmpLeavesTheLogOut(t *testing.T) {
	db, err := Open(tailConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; db.ssd.Size(db.wal.File()) == 0; i++ {
		if _, _, err := putKey(db, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pm, sd := db.PMDevice().Stats(), db.SSDDevice().Stats()
	var pmOther, ssdOther int64
	for c := device.CauseUnknown; c <= device.CauseScrub; c++ {
		if c != device.CauseWAL {
			pmOther += pm.WriteBytes(c)
			ssdOther += sd.WriteBytes(c)
		}
	}
	pmLog, ssdLog := pm.WriteBytes(device.CauseWAL), sd.WriteBytes(device.CauseWAL)
	if pmLog == 0 || ssdLog == 0 || pmOther == 0 {
		t.Fatalf("setup: log bytes %d on PM and %d on SSD, %d other PM bytes", pmLog, ssdLog, pmOther)
	}
	wa := db.WriteAmp()
	if wa.PMBytes != pmOther {
		t.Fatalf("PMBytes = %d, want the %d PM bytes written for anything but the log", wa.PMBytes, pmOther)
	}
	if got := wa.SSDBytes - wa.SSDWALBytes; got != ssdOther {
		t.Fatalf("SSDBytes - SSDWALBytes = %d, want the %d SSD bytes written for anything but the log", got, ssdOther)
	}
	if got := wa.ByCause[device.CauseWAL.String()]; got != pmLog+ssdLog {
		t.Fatalf(`ByCause["wal"] = %d, want the log's %d PM and %d SSD bytes`, got, pmLog, ssdLog)
	}
}

// TestTornTailWriteDegrades: a tail write torn mid-record fails its group and
// degrades the engine, and replay stops before the torn record: every acked
// write recovers, the torn one does not.
func TestTornTailWriteDegrades(t *testing.T) {
	in := fault.New(51)
	db, err := Open(tailConfig(in))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := fillKeys(t, db, 20)
	in.FailOp(fault.PMWrite, device.CauseWAL, 1, fault.Decision{Err: fault.ErrTorn, Tear: 10})
	if err := db.Put([]byte("torn"), []byte("x")); !errors.Is(err, fault.ErrTorn) {
		t.Fatalf("torn tail write = %v, want ErrTorn", err)
	}
	if err := db.Put([]byte("after"), []byte("x")); !errors.Is(err, fault.ErrTorn) {
		t.Fatalf("a write after the torn one = %v, want the degraded engine's ErrTorn", err)
	}
	pm, sd := db.PMDevice().CrashImage(nil), db.SSDDevice().CrashImage(nil)
	wantOnceEach(t, imageLog(t, pm, sd), len(want))
	re := recoverImage(t, db, want)
	defer re.Close()
	if _, ok, _ := re.Get([]byte("torn")); ok {
		t.Fatal("the torn write recovered")
	}
}

// TestCutAtDestage cuts the power at the destage's SSD append and at its sync,
// with the unsynced file bytes lost, torn or kept whole: the tail still holds
// what the file may not, so every acked write recovers, once.
func TestCutAtDestage(t *testing.T) {
	cuts := map[string]func(in *fault.Injector){
		"append": func(in *fault.Injector) { in.ArmPowerCutAt(fault.SSDAppend, device.CauseWAL, 1) },
		"sync":   func(in *fault.Injector) { in.ArmPowerCutAtPoint(fault.SSDSync, 1) },
	}
	keeps := map[string]func(durable, size int64) int64{
		"lost": func(durable, _ int64) int64 { return durable },
		"torn": func(durable, size int64) int64 { return durable + (size-durable)/2 },
		"kept": func(_, size int64) int64 { return size },
	}
	for cut, arm := range cuts {
		for keep, bytes := range keeps {
			t.Run(cut+"/"+keep, func(t *testing.T) {
				in := fault.New(53)
				db, err := Open(tailConfig(in))
				if err != nil {
					t.Fatal(err)
				}
				arm(in)
				want, err := putUntilFail(t, db, 5000)
				if !errors.Is(err, fault.ErrPowerCut) {
					t.Fatalf("Put = %v, want the power cut", err)
				}
				pm := db.PMDevice().CrashImage(nil)
				sd := db.SSDDevice().CrashImage(func(_ ssd.FileID, durable, size int64) int64 { return bytes(durable, size) })
				wantOnceEach(t, imageLog(t, pm, sd), len(want))
				re, err := RecoverCurrent(tailConfig(nil), pm, sd)
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				checkAll(t, re, want)
			})
		}
	}
}

// TestCutAfterDestage cuts the power once a destage has synced the tail's
// records into the file — before the tail is emptied, at the write of the
// group that set it off, and at the next group's: nothing replays twice,
// nothing is lost.
func TestCutAfterDestage(t *testing.T) {
	// Sizing pass: the put whose group destaged, and the device operations
	// up to the end of it.
	in := fault.New(55)
	db, err := Open(tailConfig(in))
	if err != nil {
		t.Fatal(err)
	}
	destaged, points := -1, 0
	for i := 0; destaged < 0; i++ {
		if _, _, err := putKey(db, i); err != nil {
			t.Fatal(err)
		}
		if db.ssd.Size(db.wal.File()) > 0 {
			destaged, points = i, in.Points()
		}
	}
	db.Close()

	// That put's operations end with the destage's append, sync, emptying
	// write and fence, then its own write and fence.
	cuts := map[string]int{"tail not emptied": points - 3, "own group": points - 1, "next group": points + 1}
	for name, cut := range cuts {
		t.Run(name, func(t *testing.T) {
			in := fault.New(55)
			in.ArmPowerCut(cut)
			db, err := Open(tailConfig(in))
			if err != nil {
				t.Fatal(err)
			}
			want, err := putUntilFail(t, db, destaged+2)
			if !errors.Is(err, fault.ErrPowerCut) {
				t.Fatalf("Put = %v, want the power cut", err)
			}
			pm, sd := db.PMDevice().CrashImage(nil), db.SSDDevice().CrashImage(nil)
			if sd.Size(db.wal.File()) == 0 {
				t.Fatal("the cut came before the destage")
			}
			wantOnceEach(t, imageLog(t, pm, sd), len(want))
			re, err := RecoverCurrent(tailConfig(nil), pm, sd)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			checkAll(t, re, want)
		})
	}
}

// TestCheckpointAfterTornDestage: a destage torn in its SSD append degrades
// the engine and leaves the file ending in a torn record. A checkpoint of the
// degraded engine must not destage again behind it: the tail keeps the
// records, so a restart from the bridging manifest or from the final one
// recovers every acked write, once.
func TestCheckpointAfterTornDestage(t *testing.T) {
	for _, cut := range []bool{true, false} {
		t.Run(fmt.Sprintf("cut before the final manifest=%v", cut), func(t *testing.T) {
			in := fault.New(61)
			db, err := Open(tailConfig(in))
			if err != nil {
				t.Fatal(err)
			}
			in.FailOp(fault.SSDAppend, device.CauseWAL, 1, fault.Decision{Err: fault.ErrTorn, Tear: 100})
			want, err := putUntilFail(t, db, 5000)
			if !errors.Is(err, fault.ErrTorn) {
				t.Fatalf("Put = %v, want the torn destage", err)
			}
			if cut {
				// The bridging manifest is the first installed from here on.
				in.ArmPowerCutAt(fault.SSDAppend, device.CauseManifest, 2)
				if _, err := db.Checkpoint(); !errors.Is(err, fault.ErrPowerCut) {
					t.Fatalf("Checkpoint = %v, want the power cut", err)
				}
			} else if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// Keep every byte the files took, the torn record among them.
			pm := db.PMDevice().CrashImage(nil)
			sd := db.SSDDevice().CrashImage(func(_ ssd.FileID, _, size int64) int64 { return size })
			wantOnceEach(t, imageLog(t, pm, sd), len(want))
			re, err := RecoverCurrent(tailConfig(nil), pm, sd)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			checkAll(t, re, want)
		})
	}
}

// TestTailReplaysBelowManifestSeq: records the tail holds are replayed even
// when a later manifest's sequence is above theirs — the manifest is no
// statement about what was flushed.
func TestTailReplaysBelowManifestSeq(t *testing.T) {
	db, err := Open(tailConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := fillKeys(t, db, 50)
	if _, err := db.SaveManifest(); err != nil {
		t.Fatal(err)
	}
	re := recoverImage(t, db, want)
	re.Close()
}

// TestCheckpointEmptiesTheTail: a checkpoint leaves the log holding nothing
// written before it — the tail is destaged into the retiring file and emptied
// — so a restart replays none of it.
func TestCheckpointEmptiesTheTail(t *testing.T) {
	db, err := Open(tailConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := fillKeys(t, db, 50)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := liveLog(t, db); n != 0 {
		t.Fatalf("the log holds %d entries after the checkpoint", n)
	}
	re := recoverImage(t, db, want)
	defer re.Close()
	for _, p := range re.partitions {
		if !p.state.Load().mem.Empty() {
			t.Fatalf("partition %d: the restart replayed checkpointed writes", p.id)
		}
	}
}

// TestScrubRacesCheckpoints: scrub passes verify the tail while writers log
// into it and checkpoints hand it from one writer to the next (run it under
// the race detector); a clean log is never reported.
func TestScrubRacesCheckpoints(t *testing.T) {
	db, err := Open(tailConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	stop := make(chan struct{})
	scrubbed := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				scrubbed <- nil
				return
			default:
			}
			incidents, err := db.ScrubOnce()
			if err == nil && len(incidents) != 0 {
				err = fmt.Errorf("clean log scrubbed as %+v", incidents)
			}
			if err != nil {
				scrubbed <- err
				return
			}
		}
	}()
	for round := 0; round < 20; round++ {
		for i := 0; i < 100; i++ {
			if _, _, err := putKey(db, round*100+i); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-scrubbed; err != nil {
		t.Fatal(err)
	}
}

// TestScrubFindsRotInLogTail: one rotted byte among the tail's live records is
// one WAL incident, located inside the tail.
func TestScrubFindsRotInLogTail(t *testing.T) {
	db, err := Open(scrubConfig(fault.New(57)))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const puts = 10
	for i := 0; i < puts; i++ {
		if err := db.Put([]byte(fmt.Sprintf("tail-%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if incidents, err := db.ScrubOnce(); err != nil || len(incidents) != 0 {
		t.Fatalf("clean scrub: %+v, %v", incidents, err)
	}
	// A 12-byte header, then one record per put: an 8-byte frame and a
	// payload of seq(8), kind(1), a 7-byte key and a 1-byte value with their
	// one-byte lengths.
	const live = 12 + puts*(8+8+1+1+7+1+1)
	if _, err := db.PMDevice().Rot(db.walTail.Addr(), 0, live); err != nil {
		t.Fatal(err)
	}
	incidents, err := db.ScrubOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(incidents) != 1 || incidents[0].Device != device.WAL || incidents[0].ID != uint64(db.walTail.Addr()) ||
		incidents[0].Offset < 0 || incidents[0].Offset >= live {
		t.Fatalf("scrub incidents %+v, want one WAL incident inside the tail's %d live bytes", incidents, live)
	}
}
