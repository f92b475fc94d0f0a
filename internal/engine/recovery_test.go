package engine

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"pmblade/internal/device"
	"pmblade/internal/fault"
	"pmblade/internal/kv"
	"pmblade/internal/ssd"
	"pmblade/internal/wal"
)

func TestRecoverFromManifestAndWAL(t *testing.T) {
	cfg := fastConfig()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < 2000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	// Some of those are in level-0 (flushed), the tail only in the WAL.
	mf, err := db.SaveManifest()
	if err != nil {
		t.Fatal(err)
	}
	// Writes after the manifest: only the WAL has them.
	for i := 2000; i < 2100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	pm, sd := db.PMDevice(), db.SSDDevice()
	db.Close() // "crash": devices survive, process state is discarded

	re, err := Recover(cfg, pm, sd, mf)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < 2100; i += 97 {
		k := []byte(fmt.Sprintf("key-%05d", i))
		got, ok, err := re.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || !bytes.Equal(got, val) {
			t.Fatalf("after recovery Get(%s) = %v %v", k, len(got), ok)
		}
	}
	// WAL-only tail must be present.
	if _, ok, _ := re.Get([]byte("key-02099")); !ok {
		t.Fatal("WAL tail lost in recovery")
	}
	// New writes must work and not collide with recovered sequence numbers.
	if err := re.Put([]byte("key-00000"), []byte("post-recovery")); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := re.Get([]byte("key-00000"))
	if !ok || string(got) != "post-recovery" {
		t.Fatalf("post-recovery write lost: %q %v", got, ok)
	}
}

func TestRecoverPreservesTombstones(t *testing.T) {
	cfg := fastConfig()
	db, _ := Open(cfg)
	db.Put([]byte("alive"), []byte("v"))
	db.Put([]byte("dead"), []byte("v"))
	db.FlushAll()
	db.Delete([]byte("dead"))
	db.FlushAll() // tombstone now in PM level-0
	mf, err := db.SaveManifest()
	if err != nil {
		t.Fatal(err)
	}
	pm, sd := db.PMDevice(), db.SSDDevice()
	db.Close()

	re, err := Recover(cfg, pm, sd, mf)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok, _ := re.Get([]byte("dead")); ok {
		t.Fatal("tombstone lost in recovery")
	}
	if _, ok, _ := re.Get([]byte("alive")); !ok {
		t.Fatal("live key lost in recovery")
	}
}

func TestRecoverRocksDBMode(t *testing.T) {
	cfg := allModeConfigs()["rocksdb"]
	db, _ := Open(cfg)
	val := bytes.Repeat([]byte("v"), 200)
	for i := 0; i < 3000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%05d", i%1000)), val)
	}
	db.FlushAll()
	mf, err := db.SaveManifest()
	if err != nil {
		t.Fatal(err)
	}
	sd := db.SSDDevice()
	db.Close()

	re, err := Recover(cfg, nil, sd, mf)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < 1000; i += 101 {
		k := []byte(fmt.Sprintf("key-%05d", i))
		if _, ok, _ := re.Get(k); !ok {
			t.Fatalf("key %s lost in leveled recovery", k)
		}
	}
}

func TestRecoverRejectsMissingManifest(t *testing.T) {
	cfg := fastConfig()
	db, _ := Open(cfg)
	sd := db.SSDDevice()
	db.Close()
	if _, err := Recover(cfg, nil, sd, 9999); err == nil {
		t.Fatal("expected error for missing manifest")
	}
}

func TestRecoverRejectsPartitionMismatch(t *testing.T) {
	cfg := fastConfig()
	db, _ := Open(cfg)
	db.Put([]byte("k"), []byte("v"))
	mf, _ := db.SaveManifest()
	pm, sd := db.PMDevice(), db.SSDDevice()
	db.Close()

	bad := cfg
	bad.PartitionBoundaries = [][]byte{[]byte("m")}
	if _, err := Recover(bad, pm, sd, mf); err == nil {
		t.Fatal("expected error for partition-count mismatch")
	}
}

// TestRecoverRejectsQuarantineOfUnknownPartition: a quarantine record naming
// a partition the manifest does not have fails the recovery. Skipping it would
// leak the corpse's storage and read its range as a clean not-found.
func TestRecoverRejectsQuarantineOfUnknownPartition(t *testing.T) {
	cfg := fastConfig()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	mf, err := db.SaveManifest()
	if err != nil {
		t.Fatal(err)
	}
	pm, sd := db.PMDevice(), db.SSDDevice()
	db.Close()

	m, err := readManifest(sd, mf)
	if err != nil {
		t.Fatal(err)
	}
	m.Quarantine = append(m.Quarantine, QuarantineRecord{Device: device.SSD, ID: 12345, Partition: 99, Detail: "test"})
	raw, err := encodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	bad := sd.Create()
	if _, err := sd.Append(bad, raw, device.CauseManifest); err != nil {
		t.Fatal(err)
	}
	if err := sd.Sync(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(cfg, pm, sd, bad); err == nil || !strings.Contains(err.Error(), "partition 99") {
		t.Fatalf("Recover with a quarantine record of partition 99: %v, want an error naming it", err)
	}
}

func TestCheckpointRotatesWALAndBoundsReplay(t *testing.T) {
	cfg := fastConfig()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	oldWAL := db.wal.File()
	mf, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// The old log must be gone; the new one must be empty.
	sd := db.SSDDevice()
	if sd.Size(oldWAL) >= 0 {
		t.Fatal("old WAL file should be deleted after checkpoint")
	}
	if sz := sd.Size(db.wal.File()); sz != 0 {
		t.Fatalf("new WAL should be empty, has %d bytes", sz)
	}
	// Writes after the checkpoint land in the new log and survive recovery.
	if err := db.Put([]byte("post-ckpt"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Recovery sees the checkpointed manifest; it cannot know about the new
	// WAL file, so reopen from a fresh manifest as a full restart would.
	mf2, err := db.SaveManifest()
	if err != nil {
		t.Fatal(err)
	}
	_ = mf
	pm := db.PMDevice()
	db.Close()
	re, err := Recover(cfg, pm, sd, mf2)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < 500; i += 53 {
		if _, ok, _ := re.Get([]byte(fmt.Sprintf("key-%05d", i))); !ok {
			t.Fatalf("key %d lost after checkpointed recovery", i)
		}
	}
	if _, ok, _ := re.Get([]byte("post-ckpt")); !ok {
		t.Fatal("post-checkpoint write lost")
	}
}

// liveLog replays db's live log — file and tail — through the device-neutral
// replay and returns the number of entries it holds.
func liveLog(t *testing.T, db *DB) int {
	t.Helper()
	n, err := wal.ReplayLog(db.ssd, []ssd.FileID{db.wal.File()}, db.walTail, func(kv.Entry) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRecoverTornGroupCommit simulates a crash in the middle of a group
// commit: the process dies without Close while the last WAL batch record is
// only partially on the device — in the PM tail, or in the SSD file without
// PM. Every batch whose record was fully written must recover completely; the
// torn batch must be invisible in its entirety — group commit batches are
// atomic units of recovery, never split.
func TestRecoverTornGroupCommit(t *testing.T) {
	for name, cfg := range logConfigs(fastConfig()) {
		t.Run(name, func(t *testing.T) {
			in := fault.New(31)
			cfg.FaultInjector = in
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mf, err := db.SaveManifest()
			if err != nil {
				t.Fatal(err)
			}

			// Each Apply is one atomic batch sharing a single WAL record.
			const batches, perBatch = 5, 10
			val := bytes.Repeat([]byte("v"), 64)
			apply := func(k int) error {
				var b Batch
				for j := 0; j < perBatch; j++ {
					b.Put([]byte(fmt.Sprintf("batch%d-key-%02d", k, j)), val)
				}
				return db.Apply(&b)
			}
			for k := 0; k < batches-1; k++ {
				if err := apply(k); err != nil {
					t.Fatal(err)
				}
				if n := liveLog(t, db); n != (k+1)*perBatch {
					t.Fatalf("the log holds %d entries after %d batches of %d", n, k+1, perBatch)
				}
			}

			// Crash: the final batch's log write is torn mid-record, as a
			// power cut during the device write would, and the process dies
			// without Close.
			in.FailOp(logWritePoint(cfg), device.CauseWAL, 1, fault.Decision{Err: fault.ErrTorn, Tear: 400})
			if err := apply(batches - 1); !errors.Is(err, fault.ErrTorn) {
				t.Fatalf("torn batch = %v, want ErrTorn", err)
			}
			cfg.FaultInjector = nil
			re, err := Recover(cfg, db.PMDevice(), db.SSDDevice(), mf)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			// Synced batches recover fully.
			for k := 0; k < batches-1; k++ {
				for j := 0; j < perBatch; j++ {
					key := []byte(fmt.Sprintf("batch%d-key-%02d", k, j))
					got, ok, err := re.Get(key)
					if err != nil {
						t.Fatal(err)
					}
					if !ok || !bytes.Equal(got, val) {
						t.Fatalf("batch %d key %d lost after torn-tail recovery", k, j)
					}
				}
			}
			// The torn batch is atomically absent: not one of its keys survives.
			for j := 0; j < perBatch; j++ {
				key := []byte(fmt.Sprintf("batch%d-key-%02d", batches-1, j))
				if _, ok, _ := re.Get(key); ok {
					t.Fatalf("torn batch key %d visible after recovery — batch split", j)
				}
			}
			// The recovered engine accepts new writes.
			if err := re.Put([]byte("post-crash"), []byte("ok")); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := re.Get([]byte("post-crash")); !ok {
				t.Fatal("post-crash write lost")
			}
		})
	}
}
