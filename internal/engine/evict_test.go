package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"pmblade/internal/device"
	"pmblade/internal/fault"
	"pmblade/internal/ssd"
)

// evictConfig builds a four-partition PM-Blade config whose knapsack will
// preserve the small hot partition 0 and evict partitions 1-3 when an
// eviction pass runs. The automatic triggers are parked so tests drive
// evictByCost explicitly.
func evictConfig() Config {
	cfg := fastConfig()
	cfg.PartitionBoundaries = [][]byte{[]byte("p1"), []byte("p2"), []byte("p3")}
	cfg.MemtableBytes = 4 << 20    // no rotation during test writes
	cfg.InternalCompaction = false // keep local maintenance quiet
	cfg.Cost.TauM = 1 << 40        // evictions fire only when called
	cfg.Cost.TauW = 1 << 40
	cfg.Cost.TauT = 256 << 10         // room for the hot partition only
	cfg.Cost.Ib, cfg.Cost.Ip = 1, 0.5 // irrelevant here, but non-zero
	cfg.Cost.Is, cfg.Cost.Tp = 10, 0.5
	return cfg
}

// evictByCost runs (or joins) one cost-based eviction pass, as the τ_m
// trigger and a writer out of PM space do.
func evictByCost(db *DB) error {
	_, err := db.evictOnce(db.costVictims)
	return err
}

// fillEvictionScenario loads a small hot partition 0 and three large cold
// partitions, flushes everything to PM level-0, and issues reads that make
// partition 0 the knapsack's clear winner. Returns the expected contents.
func fillEvictionScenario(t *testing.T, db *DB, perVictim, valBytes int) map[string]string {
	t.Helper()
	want := map[string]string{}
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("a-%04d", i)
		if err := db.Put([]byte(k), []byte("hot")); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
		want[k] = "hot"
	}
	val := string(bytes.Repeat([]byte("v"), valBytes))
	for part := 1; part <= 3; part++ {
		for i := 0; i < perVictim; i++ {
			k := fmt.Sprintf("p%d-%05d", part, i)
			if err := db.Put([]byte(k), []byte(val)); err != nil {
				t.Fatalf("put %s: %v", k, err)
			}
			want[k] = val
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("a-%04d", i%40)
		if _, ok, err := db.Get([]byte(k)); err != nil || !ok {
			t.Fatalf("hot read %s: ok=%v err=%v", k, ok, err)
		}
	}
	return want
}

func checkAll(t *testing.T, db *DB, want map[string]string) {
	t.Helper()
	for k, v := range want {
		got, ok, err := db.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
		if !ok || string(got) != v {
			t.Fatalf("key %s: ok=%v got %d bytes, want %d", k, ok, len(got), len(v))
		}
	}
}

func l0Tables(p *partition) int {
	return len(p.state.Load().pmTables())
}

// TestEvictionDoesNotBlockPreservedPuts is the acceptance test for the
// narrowed majorMu contract: while victim partitions are being compacted to
// a deliberately slow SSD, Puts routed to the preserved partition must keep
// completing — the old code held majorMu across the whole victim sweep, and
// any writer that needed an eviction decision stalled behind it.
func TestEvictionDoesNotBlockPreservedPuts(t *testing.T) {
	cfg := evictConfig()
	// Puts never touch the SSD (no WAL), so a stalled Put could only mean a
	// lock held across compaction I/O — exactly what this test forbids.
	cfg.DisableWAL = true
	cfg.SSDProfile = ssd.Profile{
		WriteLatency:   500 * time.Microsecond,
		WriteBandwidth: 64 << 20,
		Parallelism:    2,
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := fillEvictionScenario(t, db, 400, 2048)

	evictDone := make(chan error, 1)
	go func() { evictDone <- evictByCost(db) }()

	deadline := time.Now().Add(30 * time.Second)
	for db.metrics.EvictVictimsInFlight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("eviction never started compacting a victim")
		}
		runtime.Gosched()
	}

	// Victim compactions are in flight right now. Puts to the preserved
	// partition must complete while that remains true.
	completed := 0
	for i := 0; db.metrics.EvictVictimsInFlight.Load() > 0 && i < 1<<20; i++ {
		k := fmt.Sprintf("a-live-%06d", i)
		if err := db.Put([]byte(k), []byte("x")); err != nil {
			t.Fatalf("put during eviction: %v", err)
		}
		want[k] = "x"
		if db.metrics.EvictVictimsInFlight.Load() > 0 {
			completed++
		}
	}
	if completed == 0 {
		t.Fatal("no Put to a preserved partition completed while victim compactions were in flight")
	}
	if err := <-evictDone; err != nil {
		t.Fatalf("eviction: %v", err)
	}

	for i := 1; i <= 3; i++ {
		if n := l0Tables(db.partitions[i]); n != 0 {
			t.Errorf("victim partition %d still has %d level-0 tables", i, n)
		}
	}
	if l0Tables(db.partitions[0]) == 0 {
		t.Error("preserved partition was evicted from PM")
	}
	checkAll(t, db, want)

	m := db.Metrics()
	if got := m.EvictionCount.Load(); got != 1 {
		t.Errorf("EvictionCount = %d, want 1", got)
	}
	if m.EvictionWallNanos.Load() == 0 {
		t.Error("EvictionWallNanos not recorded")
	}
	if m.VictimStallNanos.Load() == 0 {
		t.Error("VictimStallNanos not recorded")
	}
	if m.EvictVictimsInFlight.Load() != 0 {
		t.Errorf("EvictVictimsInFlight gauge did not return to 0: %d", m.EvictVictimsInFlight.Load())
	}
}

// TestEvictionVictimFaultIsolation proves "error → outputs discarded, inputs
// still serve, clean retry finishes" for the one compaction body under every
// description the modes give it, and then the failure isolation of a whole
// victim pass.
func TestEvictionVictimFaultIsolation(t *testing.T) {
	for name, cfg := range allModeConfigs() {
		t.Run("job/"+name, func(t *testing.T) { failedJobKeepsInputs(t, cfg) })
	}
	t.Run("pass", victimPassIsolatesFailure)
}

// failedJobKeepsInputs runs one major (or, in a leveled layout, level-0 leveled)
// job whose range subtasks hit a permanent SSD fault: the job returns the
// fault, every key still reads from the inputs, the outputs its subtasks
// finished are gone from the device, and the same job then succeeds.
func failedJobKeepsInputs(t *testing.T, cfg Config) {
	in := fault.New(11)
	cfg.FaultInjector = in
	cfg.SyncFlush = true
	cfg.MemtableBytes = 4 << 20    // only FlushAll flushes: one table per round
	cfg.SSTableBytes = 16 << 10    // several output tables per range subtask
	cfg.InternalCompaction = false // park every automatic trigger but
	cfg.L0TriggerTables = 1 << 20  // the SSD tree's level-0 trigger too
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p := db.partitions[0]
	job, cause := func() error { return db.majorCompact(p, nil, nil) }, device.CauseMajor
	if cfg.L1TargetBytes > 0 {
		job, cause = func() error { return db.compactToSSD(p, leveledStep(p.tree, 0)) }, device.CauseLeveled
	}
	locked := func() error {
		p.maint.Lock()
		defer p.maint.Unlock()
		return job()
	}

	want := map[string]string{}
	round := func(gen, n int) {
		for i := 0; i < n; i++ {
			k, v := fmt.Sprintf("key-%05d", i), fmt.Sprintf("gen%d-%0200d", gen, i)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			want[k] = v
		}
		if err := db.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	// A destination with several tables, then two level-0 tables over it.
	for gen := 0; gen < 4; gen++ {
		round(gen, 600)
	}
	if err := db.MajorCompactAll(); err != nil {
		t.Fatal(err)
	}
	round(4, 600)
	round(5, 300)
	level0 := func() int {
		s := p.state.Load()
		return len(s.pmTables()) + len(s.ssdL0)
	}
	if run := p.state.Load().runs[0]; level0() != 2 || len(run) < 2 {
		t.Fatalf("setup: %d level-0 tables over %d run tables, want 2 over >= 2", level0(), len(run))
	}
	if n := db.cfg.Workers * db.pool.K(); n < 2 {
		t.Fatalf("setup: %d range subtasks, want >= 2", n)
	}

	used, majors := db.SSDDevice().UsedBytes(), db.Metrics().MajorCount.Load()
	in.FailOp(fault.SSDAppend, cause, 2, fault.Decision{Err: fault.ErrPermanent})
	if err := locked(); !errors.Is(err, fault.ErrPermanent) {
		t.Fatalf("job error = %v, want the permanent fault", err)
	}
	checkAll(t, db, want)
	if got := db.SSDDevice().UsedBytes(); got != used {
		t.Fatalf("failed job left %d bytes of never-installed output on the SSD", got-used)
	}
	if level0() != 2 || db.Metrics().MajorCount.Load() != majors {
		t.Fatalf("failed job changed the installed tables: %d level-0 tables, want 2", level0())
	}

	if err := locked(); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if level0() != 0 {
		t.Fatalf("retry left %d level-0 tables", level0())
	}
	checkAll(t, db, want)
}

// victimPassIsolatesFailure: a permanent device fault in one victim's
// compaction must not abort the other victims (their runs install and become
// durable via the end-of-pass manifest), must leave the failed victim's
// level-0 serving reads, and must leave a state a crash can recover from. A
// clean retry then finishes the job.
func victimPassIsolatesFailure(t *testing.T) {
	in := fault.New(7)
	cfg := evictConfig()
	cfg.FaultInjector = in
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := fillEvictionScenario(t, db, 300, 2048)

	// Exactly one major-compaction append fails, permanently: one victim's
	// compaction dies, whichever reaches the device first.
	in.FailOp(fault.SSDAppend, device.CauseMajor, 1, fault.Decision{Err: fault.ErrPermanent})
	err = evictByCost(db)
	if !errors.Is(err, fault.ErrPermanent) {
		t.Fatalf("eviction error = %v, want permanent fault", err)
	}

	evicted, kept := 0, 0
	for i := 1; i <= 3; i++ {
		if l0Tables(db.partitions[i]) == 0 {
			evicted++
		} else {
			kept++
		}
	}
	if evicted != 2 || kept != 1 {
		t.Fatalf("after one victim failed: %d evicted, %d kept; want 2 and 1", evicted, kept)
	}
	// Every key is still readable: the failed victim serves from PM, the
	// successful victims from their installed SSD runs.
	checkAll(t, db, want)

	// The installed state is recoverable: the end-of-pass manifest ran even
	// though a victim failed, so a crash right now loses nothing.
	pmImg := db.PMDevice().CrashImage(nil)
	sdImg := db.SSDDevice().CrashImage(nil)
	re, err := RecoverCurrent(evictConfig(), pmImg, sdImg)
	if err != nil {
		t.Fatalf("recovery after partial eviction: %v", err)
	}
	checkAll(t, re, want)
	re.Close()

	// The engine is not wedged: a clean pass evicts the remaining victim.
	if err := evictByCost(db); err != nil {
		t.Fatalf("retry eviction: %v", err)
	}
	for i := 1; i <= 3; i++ {
		if n := l0Tables(db.partitions[i]); n != 0 {
			t.Fatalf("victim partition %d not evicted after retry (%d tables)", i, n)
		}
	}
	checkAll(t, db, want)
	if got := db.Metrics().EvictionCount.Load(); got != 2 {
		t.Errorf("EvictionCount = %d, want 2", got)
	}
}

// TestConcurrentEvictTriggersJoinOnePass drives evictOnce from many
// goroutines at once; the singleflight must run one pass and hand every
// caller its result.
func TestConcurrentEvictTriggersJoinOnePass(t *testing.T) {
	cfg := evictConfig()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillEvictionScenario(t, db, 100, 1024)

	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = evictByCost(db)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	// A caller either owns a pass or joins the one in flight, so the pass
	// count is bounded by the caller count; simultaneous triggers collapse
	// well below that in practice.
	if got := db.Metrics().EvictionCount.Load(); got == 0 || got > callers {
		t.Fatalf("EvictionCount = %d after %d concurrent triggers", got, callers)
	}
}

// TestStressCompactEvict is the `make stress-compact` workload: a seeded
// mixed workload against a PM small enough to force repeated cost-based
// evictions while writers and readers run concurrently. Run under -race,
// it exercises the concurrent-victim pipeline end to end on every PR.
func TestStressCompactEvict(t *testing.T) {
	cfg := fastConfig()
	cfg.PartitionBoundaries = [][]byte{[]byte("c"), []byte("f"), []byte("j"), []byte("n")}
	cfg.PMCapacity = 2 << 20 // DefaultCostParams: τ_m at 70%, τ_t at 50%
	cfg.MemtableBytes = 32 << 10
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const writers, perWriter, valBytes = 3, 2500, 512
	prefixes := []string{"a", "d", "g", "k", "p"}
	value := func(w, i int) []byte {
		v := bytes.Repeat([]byte{byte('0' + w)}, valBytes)
		copy(v, fmt.Sprintf("w%d-%06d", w, i))
		return v
	}
	key := func(w, i int, rng *rand.Rand) string {
		return fmt.Sprintf("%s-w%d-%05d", prefixes[rng.Intn(len(prefixes))], w, i)
	}

	var wgW, wgR sync.WaitGroup
	errCh := make(chan error, writers+2)
	keysCh := make(chan map[string][]byte, writers)
	for w := 0; w < writers; w++ {
		w := w
		wgW.Add(1)
		go func() {
			defer wgW.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			mine := make(map[string][]byte, perWriter)
			for i := 0; i < perWriter; i++ {
				k := key(w, i, rng)
				v := value(w, i)
				if err := db.Put([]byte(k), v); err != nil {
					errCh <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				mine[k] = v
			}
			keysCh <- mine
		}()
	}
	stopReaders := make(chan struct{})
	for r := 0; r < 2; r++ {
		r := r
		wgR.Add(1)
		go func() {
			defer wgR.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				k := fmt.Sprintf("%s-w%d-%05d", prefixes[rng.Intn(len(prefixes))],
					rng.Intn(writers), rng.Intn(perWriter))
				if _, _, err := db.Get([]byte(k)); err != nil {
					errCh <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}()
	}

	// Readers stop once writers finish; a wedged writer fails via the
	// deadline rather than hanging the test binary forever.
	writersDone := make(chan struct{})
	go func() { wgW.Wait(); close(writersDone) }()
	select {
	case <-writersDone:
	case <-time.After(5 * time.Minute):
		t.Fatal("stress workload wedged")
	}
	close(stopReaders)
	wgR.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if got := db.Metrics().EvictionCount.Load(); got < 2 {
		t.Fatalf("stress forced %d evictions, want >= 2", got)
	}
	// Integrity: every surviving version must be the writer's own payload.
	close(keysCh)
	checked := 0
	for mine := range keysCh {
		for k, v := range mine {
			if checked%17 != 0 {
				checked++
				continue
			}
			checked++
			got, ok, err := db.Get([]byte(k))
			if err != nil {
				t.Fatalf("verify Get(%s): %v", k, err)
			}
			if !ok || !bytes.Equal(got, v) {
				t.Fatalf("key %s: ok=%v, payload mismatch", k, ok)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no keys verified")
	}
	checkTierOrder(t, db, false)
}
