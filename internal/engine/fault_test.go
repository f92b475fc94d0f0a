package engine

import (
	"errors"
	"fmt"
	"testing"

	"pmblade/internal/device"
	"pmblade/internal/fault"
	"pmblade/internal/sched"
)

// faultConfig is fastConfig made deterministic (single worker, synchronous
// flush, no wall-clock cost model) with a fault injector attached — the same
// shape the crash harness uses.
func faultConfig(in *fault.Injector) Config {
	cfg := fastConfig()
	cfg.SyncFlush = true
	cfg.Workers = 1
	cfg.QMax = 1
	cfg.SchedMode = sched.ModeThread
	cfg.CostBased = false
	cfg.L0TriggerTables = 4
	cfg.FaultInjector = in
	return cfg
}

// fillKeys writes n acked keys and returns their expected values.
func fillKeys(t *testing.T, db *DB, n int) map[string]string {
	t.Helper()
	want := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%04d", i)
		v := fmt.Sprintf("val-%04d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
		want[k] = v
	}
	return want
}

// recoverImage cuts the crash images (durable prefix only — deterministic)
// and recovers from them, checking every acked key survived.
func recoverImage(t *testing.T, db *DB, want map[string]string) *DB {
	t.Helper()
	pmImg := db.PMDevice().CrashImage(nil)
	sdImg := db.SSDDevice().CrashImage(nil)
	re, err := RecoverCurrent(faultConfig(nil), pmImg, sdImg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	for k, v := range want {
		got, ok, err := re.Get([]byte(k))
		if err != nil {
			t.Fatalf("recovered Get(%s): %v", k, err)
		}
		if !ok || string(got) != v {
			t.Fatalf("acked key %s lost after recovery (ok=%v got=%q)", k, ok, got)
		}
	}
	return re
}

// TestCheckpointCutMidManifestWrite power-cuts the engine in the middle of
// each manifest append a Checkpoint performs (the bridge manifest and the
// post-flush manifest). Recovery must fall back to the last installed
// manifest and lose no acknowledged write.
func TestCheckpointCutMidManifestWrite(t *testing.T) {
	for hit := 1; hit <= 2; hit++ {
		t.Run(fmt.Sprintf("manifest-append-%d", hit), func(t *testing.T) {
			in := fault.New(11)
			db, err := Open(faultConfig(in))
			if err != nil {
				t.Fatal(err)
			}
			want := fillKeys(t, db, 400)
			// Open already installed the initial manifest, so the counter
			// starts now: hit 1 = bridge manifest, hit 2 = final manifest.
			in.ArmPowerCutAt(fault.SSDAppend, device.CauseManifest, hit)
			if _, err := db.Checkpoint(); err == nil {
				t.Fatal("checkpoint must fail when its manifest write is cut")
			}
			re := recoverImage(t, db, want)
			defer re.Close()
			if err := re.Put([]byte("post"), []byte("ok")); err != nil {
				t.Fatalf("recovered engine rejects writes: %v", err)
			}
		})
	}
}

// TestCheckpointCutAtDelete power-cuts at each file deletion a Checkpoint
// performs (stale-manifest prune, retired-table GC, old-WAL retirement).
// A leftover file must never break recovery; no acked write may be lost.
func TestCheckpointCutAtDelete(t *testing.T) {
	for hit := 1; hit <= 2; hit++ {
		t.Run(fmt.Sprintf("delete-%d", hit), func(t *testing.T) {
			in := fault.New(13)
			db, err := Open(faultConfig(in))
			if err != nil {
				t.Fatal(err)
			}
			want := fillKeys(t, db, 400)
			in.ArmPowerCutAtPoint(fault.SSDDelete, hit)
			_, _ = db.Checkpoint() // dies partway; error shape depends on hit
			if in.Alive() {
				t.Fatal("armed delete cut never fired")
			}
			re := recoverImage(t, db, want)
			re.Close()
		})
	}
}

// TestManifestFallbackOnDroppedWrite makes the device lie about a manifest
// write (reported durable, vanishes at the power cut). The root pointer then
// names a torn manifest; recovery must reject it by checksum and fall back
// to the previous manifest in the chain, replaying the WAL on top — so even
// this failure loses nothing.
func TestManifestFallbackOnDroppedWrite(t *testing.T) {
	in := fault.New(17)
	db, err := Open(faultConfig(in))
	if err != nil {
		t.Fatal(err)
	}
	want := fillKeys(t, db, 100)
	if _, err := db.SaveManifest(); err != nil { // intact fallback manifest
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ { // acked writes covered only by the WAL
		k, v := fmt.Sprintf("tail-%03d", i), "t"
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	in.FailOp(fault.SSDAppend, device.CauseManifest, 1, fault.Decision{Drop: true})
	if _, err := db.SaveManifest(); err != nil {
		t.Fatalf("a lying device reports success: %v", err)
	}
	in.Cut()
	re := recoverImage(t, db, want)
	re.Close()
}

// TestTransientManifestFaultRetried: a transient device failure during a
// manifest write is retried and the operation succeeds.
func TestTransientManifestFaultRetried(t *testing.T) {
	in := fault.New(19)
	db, err := Open(faultConfig(in))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillKeys(t, db, 50)
	in.FailOp(fault.SSDAppend, device.CauseManifest, 1, fault.Decision{Err: fault.ErrTransient})
	in.FailOp(fault.SSDSync, device.CauseUnknown, 1, fault.Decision{Err: fault.ErrTransient})
	if _, err := db.SaveManifest(); err != nil {
		t.Fatalf("transient faults must be absorbed by retry: %v", err)
	}
}

// TestPermanentWALFaultDegradesWrites: a permanent failure on the log write —
// into the PM tail, or the SSD append without PM — fails the commit group and
// puts the engine in degraded mode — subsequent writes are refused, reads
// still serve.
func TestPermanentWALFaultDegradesWrites(t *testing.T) {
	for name, cfg := range logConfigs(faultConfig(nil)) {
		t.Run(name, func(t *testing.T) {
			in := fault.New(23)
			cfg.FaultInjector = in
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			want := fillKeys(t, db, 20)
			in.AddRule(fault.Rule{Point: logWritePoint(cfg), Cause: device.CauseWAL,
				Decision: fault.Decision{Err: fault.ErrPermanent}})
			if err := db.Put([]byte("doomed"), []byte("x")); !errors.Is(err, fault.ErrPermanent) {
				t.Fatalf("write during permanent WAL failure: %v", err)
			}
			if err := db.Put([]byte("after"), []byte("x")); err == nil {
				t.Fatal("degraded engine must refuse writes")
			}
			for k, v := range want {
				got, ok, err := db.Get([]byte(k))
				if err != nil || !ok || string(got) != v {
					t.Fatalf("degraded engine must still read %s: %q %v %v", k, got, ok, err)
				}
			}
		})
	}
}

// TestTransientWALFaultInvisible: a transient failure of the log write and
// one of its fence are retried by the committer and the client write
// succeeds.
func TestTransientWALFaultInvisible(t *testing.T) {
	for name, cfg := range logConfigs(faultConfig(nil)) {
		t.Run(name, func(t *testing.T) {
			in := fault.New(29)
			cfg.FaultInjector = in
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			in.FailOp(logWritePoint(cfg), device.CauseWAL, 1, fault.Decision{Err: fault.ErrTransient})
			in.FailPoint(logFencePoint(cfg), 1, fault.Decision{Err: fault.ErrTransient})
			ops := in.Points()
			if err := db.Put([]byte("k"), []byte("v")); err != nil {
				t.Fatalf("transient WAL fault must be retried: %v", err)
			}
			if got, ok, _ := db.Get([]byte("k")); !ok || string(got) != "v" {
				t.Fatalf("write lost: %q %v", got, ok)
			}
			if ops = in.Points() - ops; ops != 4 {
				t.Fatalf("the Put cost %d device operations, want a failed and a retried write and fence", ops)
			}
		})
	}
}
