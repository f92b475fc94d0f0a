// Package crashtest is the crash-point recovery torture harness. It runs a
// seeded workload against the engine with a fault.Injector attached, counts
// the durability-relevant device operations (the crash-point space), then
// replays the identical workload once per crash point with a power cut armed
// at that operation. Each cut produces a crash image — the durable prefix of
// both devices, with the unsynced tail kept, torn, or dropped per the seeded
// policy — on which engine.RecoverCurrent is run and checked against an
// in-memory oracle:
//
//   - no acknowledged write (or tombstone) is lost;
//   - the one in-flight operation is applied atomically or not at all;
//   - every table the recovered engine serves passed its checksum (implied:
//     recovery rejects torn images rather than serving them);
//   - the engine accepts and serves new writes after recovery;
//   - snapshot isolation survives the cut: snapshots held open across the
//     power cut are reopened at their recorded sequence on the recovered
//     engine and must serve exactly the oracle state from the moment they
//     were opened — no later write visible, no pre-snapshot version lost.
//
// Everything derives from Options.Seed: a reported failure reproduces from
// the (seed, point) pair alone.
package crashtest

import (
	"fmt"
	"sort"
	"strings"

	"pmblade/internal/engine"
	"pmblade/internal/fault"
	"pmblade/internal/pmem"
	"pmblade/internal/pmtable"
	"pmblade/internal/sched"
	"pmblade/internal/ssd"
)

// Options configures a torture run.
type Options struct {
	// Seed drives the workload, the fault schedule, and the crash-image
	// tail policy.
	Seed int64
	// Ops is the workload length in client operations (default 200).
	Ops int
	// Sample caps how many crash points are tested, chosen by seeded
	// sampling; 0 tests every point (exhaustive enumeration).
	Sample int
	// CheckpointEvery inserts an engine Checkpoint every N client ops,
	// exercising the WAL-rotation and manifest-install protocol under cuts
	// (default 64; negative disables).
	CheckpointEvery int
	// Only, when non-empty, restricts the run to exactly these 1-based
	// point indices — the reproduce-one-failure mode.
	Only []int
	// Log receives progress lines; nil silences.
	Log func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Ops == 0 {
		o.Ops = 200
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 64
	}
	return o
}

// Failure is one crash point whose recovery violated an invariant.
type Failure struct {
	Point int    // 1-based global op index the cut fired at
	Desc  string // which invariant broke, and how
}

// Report summarises a torture run.
type Report struct {
	Seed     int64
	Ops      int
	Points   int // size of the crash-point space
	Tested   int
	Failures []Failure
}

// String renders the report, including the reproduction line for failures.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "crashtest: seed=%d ops=%d points=%d tested=%d failures=%d\n",
		r.Seed, r.Ops, r.Points, r.Tested, len(r.Failures))
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  FAIL point %d: %s\n    reproduce: pmblade-crash -seed %d -ops %d -point %d\n",
			f.Point, f.Desc, r.Seed, r.Ops, f.Point)
	}
	return b.String()
}

// splitmix is the workload PRNG — independent state from the injector's, same
// determinism guarantee.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// keyspace is deliberately small so the workload revisits keys: updates,
// deletes of live keys, and tombstones over flushed data all occur.
const keyspace = 48

func wkey(r *splitmix) string { return fmt.Sprintf("key-%03d", r.next()%keyspace) }

// harnessConfig is the deterministic engine configuration: synchronous
// flushes, single compaction slot, threshold (not cost-based) strategy, no
// commit lingering — every pass issues the identical device-op sequence.
func harnessConfig(in *fault.Injector) engine.Config {
	return engine.Config{
		PMCapacity:          32 << 20,
		MemtableBytes:       4 << 10,
		Level0OnPM:          true,
		PMTableFormat:       pmtable.FormatPrefix,
		InternalCompaction:  true,
		L0TriggerTables:     4,
		SchedMode:           sched.ModeThread,
		Workers:             1,
		QMax:                1,
		SyncFlush:           true,
		PartitionBoundaries: [][]byte{[]byte("key-024")},
		FaultInjector:       in,
	}
}

// oracle is the acknowledged state: key -> value, nil meaning an acknowledged
// tombstone. ever records every key any acknowledged op touched.
type oracle struct {
	vals map[string]*string
	ever map[string]bool
}

func newOracle() *oracle {
	return &oracle{vals: make(map[string]*string), ever: make(map[string]bool)}
}

func (o *oracle) apply(p *pendingOp) {
	for k, v := range p.writes {
		o.vals[k] = v
		o.ever[k] = true
	}
}

// pendingOp is the one operation in flight when the cut hit: key -> value
// (nil = tombstone), already collapsed to last-write-wins like the engine's
// sequence ordering does within a batch.
type pendingOp struct {
	writes map[string]*string
}

// snapRecord pairs a snapshot's sequence with the oracle state at the moment
// it was opened: the point-in-time truth the snapshot must serve — including
// after a power cut, on the recovered engine, via NewSnapshotAt. The
// snapshots stay open for the rest of the pass, so flush and compaction run
// with live pins and the retention machinery is what the cut interrupts.
type snapRecord struct {
	seq  uint64
	vals map[string]*string
}

func strp(s string) *string { return &s }

// runPass executes the seeded workload against a fresh engine with injector
// in attached. It returns the acknowledged oracle, the pending op at the
// moment the run stopped (nil writes map if the workload completed cleanly),
// the snapshot records opened during the pass, plus the devices for imaging.
func runPass(opts Options, in *fault.Injector) (or *oracle, pending *pendingOp, snaps []snapRecord, pm *pmem.Device, sd *ssd.Device, err error) {
	or = newOracle()
	cfg := harnessConfig(in)
	db, oerr := engine.Open(cfg)
	if oerr != nil {
		// A cut during Open is a legitimate crash point: nothing was acked.
		if !in.Alive() {
			return or, &pendingOp{}, nil, nil, nil, nil
		}
		return nil, nil, nil, nil, nil, fmt.Errorf("open: %w", oerr)
	}
	pm, sd = db.PMDevice(), db.SSDDevice()
	// Snapshots open at fixed op indices (quartiles), so every pass — sizing
	// and armed alike — pins the same sequences at the same points and the
	// retention-aware flushes issue the identical device-op sequence. Opening
	// a snapshot performs no device ops itself.
	snapAt := map[int]bool{}
	if opts.Ops >= 4 {
		snapAt[opts.Ops/4] = true
		snapAt[opts.Ops/2] = true
		snapAt[3*opts.Ops/4] = true
	}
	var open []*engine.Snapshot
	rng := &splitmix{s: uint64(opts.Seed) ^ 0xC2B2AE3D27D4EB4F}
	for i := 0; i < opts.Ops; i++ {
		if snapAt[i] {
			if s, serr := db.NewSnapshot(); serr == nil {
				vals := make(map[string]*string, len(or.vals))
				for k, v := range or.vals {
					vals[k] = v
				}
				snaps = append(snaps, snapRecord{seq: s.Seq(), vals: vals})
				open = append(open, s) // held across the cut; closed after Close
			}
		}
		if opts.CheckpointEvery > 0 && i > 0 && i%opts.CheckpointEvery == 0 {
			if _, cerr := db.Checkpoint(); cerr != nil {
				pending = &pendingOp{} // checkpoint has no client-visible writes
				break
			}
		}
		op := &pendingOp{writes: make(map[string]*string)}
		var werr error
		switch r := rng.next() % 10; {
		case r < 6: // put
			k, v := wkey(rng), fmt.Sprintf("v%06d.%x", i, rng.next()&0xffff)
			op.writes[k] = strp(v)
			werr = db.Put([]byte(k), []byte(v))
		case r < 8: // delete
			k := wkey(rng)
			op.writes[k] = nil
			werr = db.Delete([]byte(k))
		default: // atomic batch of 2-5 ops
			n := 2 + int(rng.next()%4)
			var b engine.Batch
			for j := 0; j < n; j++ {
				k := wkey(rng)
				if rng.next()%4 == 0 {
					op.writes[k] = nil
					b.Delete([]byte(k))
				} else {
					v := fmt.Sprintf("v%06d.%d.%x", i, j, rng.next()&0xffff)
					op.writes[k] = strp(v)
					b.Put([]byte(k), []byte(v))
				}
			}
			werr = db.Apply(&b)
		}
		if werr != nil {
			pending = op
			break
		}
		or.apply(op)
	}
	// Close takes the last commit turn; post-cut device ops fail without mutating,
	// so a cut landing during shutdown is itself a tested crash point. The
	// snapshots are still open here — Close must tolerate live pins.
	_ = db.Close()
	for _, s := range open {
		s.Close()
	}
	return or, pending, snaps, pm, sd, nil
}

// verify recovers from the crash images and checks every invariant. It
// returns a description of the first violation, or "".
func verify(or *oracle, pending *pendingOp, snaps []snapRecord, in *fault.Injector, pm *pmem.Device, sd *ssd.Device) string {
	if sd == nil {
		// Cut during Open: nothing acked, nothing to recover.
		if len(or.ever) != 0 {
			return "internal: acked writes but no device captured"
		}
		return ""
	}
	sdImg := sd.CrashImage(func(id ssd.FileID, durable, size int64) int64 {
		return in.KeepBytes(durable, size)
	})
	var pmImg *pmem.Device
	if pm != nil {
		pmImg = pm.CrashImage(in.KeepBytes)
	}

	cfg := harnessConfig(nil)
	db, err := engine.RecoverCurrent(cfg, pmImg, sdImg)
	if err != nil {
		if len(or.ever) == 0 && (pending == nil || len(pending.writes) == 0) {
			return "" // nothing acked and nothing in flight: an empty store is acceptable
		}
		return fmt.Sprintf("recovery failed with acked state present: %v", err)
	}
	defer func() { _ = db.Close() }()

	// The in-flight op may be fully applied or fully absent, never mixed.
	// possible tracks which of the two worlds remain consistent with reads.
	possiblePrior, possibleApplied := true, true
	for k := range or.ever {
		if pending != nil && pending.writes != nil {
			if _, inFlight := pending.writes[k]; inFlight {
				continue // judged against both worlds below
			}
		}
		want := or.vals[k]
		got, ok, gerr := db.Get([]byte(k))
		if gerr != nil {
			return fmt.Sprintf("Get(%s) failed after recovery: %v", k, gerr)
		}
		switch {
		case want == nil && ok:
			return fmt.Sprintf("tombstone lost: %s resurrected as %q", k, got)
		case want != nil && !ok:
			return fmt.Sprintf("acked write lost: %s (want %q)", k, *want)
		case want != nil && string(got) != *want:
			return fmt.Sprintf("acked write corrupted: %s = %q, want %q", k, got, *want)
		}
	}
	if pending != nil {
		for k, pv := range pending.writes {
			got, ok, gerr := db.Get([]byte(k))
			if gerr != nil {
				return fmt.Sprintf("Get(%s) failed after recovery: %v", k, gerr)
			}
			prior, priorAcked := or.vals[k]
			_ = priorAcked
			matchesPrior := (prior == nil && !ok) || (prior != nil && ok && string(got) == *prior)
			matchesPending := (pv == nil && !ok) || (pv != nil && ok && string(got) == *pv)
			if !matchesPrior {
				possiblePrior = false
			}
			if !matchesPending {
				possibleApplied = false
			}
			if !matchesPrior && !matchesPending {
				return fmt.Sprintf("in-flight key %s = (%q, found=%v) matches neither prior nor pending state", k, got, ok)
			}
		}
		if !possiblePrior && !possibleApplied {
			return "in-flight batch applied non-atomically (mixed keys)"
		}
	}

	// MultiGet must agree with sequential Gets key-for-key on the quiescent
	// recovered store (the batched read path shares snapshots and coalesces
	// block reads, but is defined as equivalent to N Gets).
	if len(or.ever) > 0 {
		keys := make([]string, 0, len(or.ever))
		for k := range or.ever {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		bkeys := make([][]byte, len(keys))
		for i, k := range keys {
			bkeys[i] = []byte(k)
		}
		res, merr := db.MultiGet(bkeys)
		if merr != nil {
			return fmt.Sprintf("MultiGet failed after recovery: %v", merr)
		}
		for i, k := range keys {
			got, ok, gerr := db.Get(bkeys[i])
			if gerr != nil {
				return fmt.Sprintf("Get(%s) failed after recovery: %v", k, gerr)
			}
			if res[i].Err != nil {
				return fmt.Sprintf("MultiGet(%s) reports per-key error %v where Get succeeds", k, res[i].Err)
			}
			if res[i].Found != ok || (ok && string(res[i].Value) != string(got)) {
				return fmt.Sprintf("MultiGet(%s) = (%q, found=%v) disagrees with Get (%q, found=%v)",
					k, res[i].Value, res[i].Found, got, ok)
			}
		}
	}

	// A full-range scan and a full-range iterator walk must both agree
	// key-for-key with Gets on the recovered store. Scans trigger a
	// range-index view build over the freshly recovered tables, so this
	// tortures view reconstruction against every crash image; the iterator
	// additionally exercises the per-partition hop path. In-flight keys are
	// judged leniently (either world), matching the Get checks above. Runs
	// before the probe write so the expected key set is exactly the
	// workload's.
	if desc := verifyScans(db, or, pending); desc != "" {
		return desc
	}

	// Snapshot isolation across the cut: each snapshot opened during the
	// workload is reopened at its recorded sequence and must serve exactly
	// the oracle state from its open moment. Runs before the probe write —
	// the probe postdates every snapshot trivially, but keeping the store
	// byte-identical to the crash image makes failures reproducible.
	for _, rec := range snaps {
		if desc := verifySnapshot(db, or, pending, rec); desc != "" {
			return desc
		}
	}

	// The recovered engine must accept and serve new writes.
	probeK, probeV := []byte("probe-after-recovery"), []byte("alive")
	if perr := db.Put(probeK, probeV); perr != nil {
		return fmt.Sprintf("recovered engine rejects writes: %v", perr)
	}
	got, ok, gerr := db.Get(probeK)
	if gerr != nil || !ok || string(got) != string(probeV) {
		return fmt.Sprintf("recovered engine cannot read back a fresh write (ok=%v err=%v)", ok, gerr)
	}
	return ""
}

// verifyScans checks that a full-range Scan and a full-range Iterator walk
// over the recovered store each return exactly the keys Get serves, in sorted
// order, with identical values. It returns the first violation, or "".
func verifyScans(db *engine.DB, or *oracle, pending *pendingOp) string {
	// The universe of keys that can possibly be live: everything the
	// workload ever acknowledged plus the in-flight op's keys.
	universe := make(map[string]bool, len(or.ever))
	for k := range or.ever {
		universe[k] = true
	}
	if pending != nil {
		for k := range pending.writes {
			universe[k] = true
		}
	}

	// Expected live set per Get — Gets were already validated against the
	// oracle above, so scan-vs-Get agreement is the invariant here.
	expect := make(map[string]string)
	for k := range universe {
		got, ok, gerr := db.Get([]byte(k))
		if gerr != nil {
			return fmt.Sprintf("Get(%s) failed during scan verification: %v", k, gerr)
		}
		if ok {
			expect[k] = string(got)
		}
	}

	res, serr := db.Scan(nil, nil, 0)
	if serr != nil {
		return fmt.Sprintf("full-range Scan failed after recovery: %v", serr)
	}
	if len(res) != len(expect) {
		return fmt.Sprintf("full-range Scan returned %d keys, Gets serve %d", len(res), len(expect))
	}
	prev := ""
	for i, r := range res {
		k := string(r.Key)
		if i > 0 && k <= prev {
			return fmt.Sprintf("Scan order violation: %q after %q", k, prev)
		}
		prev = k
		want, ok := expect[k]
		if !ok {
			return fmt.Sprintf("Scan returned key %s that Get does not serve", k)
		}
		if string(r.Value) != want {
			return fmt.Sprintf("Scan(%s) = %q disagrees with Get %q", k, r.Value, want)
		}
	}

	it, ierr := db.NewIterator(nil, nil)
	if ierr != nil {
		return fmt.Sprintf("NewIterator failed after recovery: %v", ierr)
	}
	defer it.Close()
	n := 0
	for ; it.Valid(); it.Next() {
		if n >= len(res) {
			return fmt.Sprintf("Iterator yields extra key %q beyond Scan's %d", it.Key(), len(res))
		}
		if string(it.Key()) != string(res[n].Key) || string(it.Value()) != string(res[n].Value) {
			return fmt.Sprintf("Iterator entry %d = (%q,%q) disagrees with Scan (%q,%q)",
				n, it.Key(), it.Value(), res[n].Key, res[n].Value)
		}
		n++
	}
	if err := it.Err(); err != nil {
		return fmt.Sprintf("Iterator failed after recovery: %v", err)
	}
	if n != len(res) {
		return fmt.Sprintf("Iterator yielded %d keys, Scan %d", n, len(res))
	}
	return ""
}

// verifySnapshot reopens one recorded snapshot on the recovered engine (via
// NewSnapshotAt) and checks snapshot isolation: point reads and a full-range
// scan must both serve exactly the recorded point-in-time state. Every key
// the workload ever touched — acked after the snapshot, or in flight at the
// cut — is probed, so a later write leaking below the snapshot's sequence is
// caught, as is a pre-snapshot version that flush or compaction dropped
// despite the live pin.
func verifySnapshot(db *engine.DB, or *oracle, pending *pendingOp, rec snapRecord) string {
	s, err := db.NewSnapshotAt(rec.seq)
	if err != nil {
		return fmt.Sprintf("NewSnapshotAt(%d) failed after recovery: %v", rec.seq, err)
	}
	defer s.Close()

	universe := make(map[string]bool, len(or.ever))
	for k := range or.ever {
		universe[k] = true
	}
	if pending != nil {
		for k := range pending.writes {
			universe[k] = true
		}
	}
	for k := range universe {
		// Keys missing from rec.vals were first written after the snapshot
		// opened (the in-flight op included: it postdates every record); the
		// snapshot must not see them.
		want, acked := rec.vals[k]
		got, ok, gerr := s.Get([]byte(k))
		if gerr != nil {
			return fmt.Sprintf("snapshot(seq=%d) Get(%s) failed: %v", rec.seq, k, gerr)
		}
		switch {
		case (!acked || want == nil) && ok:
			return fmt.Sprintf("snapshot isolation broken: seq=%d sees %s=%q written or resurrected after open", rec.seq, k, got)
		case acked && want != nil && !ok:
			return fmt.Sprintf("snapshot version lost: seq=%d lost %s (want %q)", rec.seq, k, *want)
		case acked && want != nil && string(got) != *want:
			return fmt.Sprintf("snapshot version corrupted: seq=%d %s = %q, want %q", rec.seq, k, got, *want)
		}
	}

	// Full-range snapshot scan equals the recorded live set, in order.
	var liveKeys []string
	for k, v := range rec.vals {
		if v != nil {
			liveKeys = append(liveKeys, k)
		}
	}
	sort.Strings(liveKeys)
	res, serr := s.Scan(nil, nil, 0)
	if serr != nil {
		return fmt.Sprintf("snapshot(seq=%d) Scan failed: %v", rec.seq, serr)
	}
	if len(res) != len(liveKeys) {
		return fmt.Sprintf("snapshot(seq=%d) Scan returned %d keys, recorded live set has %d", rec.seq, len(res), len(liveKeys))
	}
	for i, r := range res {
		k := liveKeys[i]
		if string(r.Key) != k {
			return fmt.Sprintf("snapshot(seq=%d) Scan entry %d key %q, want %q", rec.seq, i, r.Key, k)
		}
		if want := rec.vals[k]; string(r.Value) != *want {
			return fmt.Sprintf("snapshot(seq=%d) Scan(%s) = %q, want %q", rec.seq, k, r.Value, *want)
		}
	}
	return ""
}

// Run executes the torture: one fault-free pass to size the crash-point
// space, then one armed pass per selected point.
func Run(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// Pass 0: no faults. Sizes the point space and validates the harness.
	in0 := fault.New(opts.Seed)
	_, pending, _, _, _, err := runPass(opts, in0)
	if err != nil {
		return nil, err
	}
	if pending != nil {
		return nil, fmt.Errorf("crashtest: fault-free pass stopped early (harness bug)")
	}
	points := in0.Points()
	rep := &Report{Seed: opts.Seed, Ops: opts.Ops, Points: points}
	logf("crash-point space: %d device ops (seed %d, %d client ops)", points, opts.Seed, opts.Ops)

	targets := opts.Only
	if len(targets) == 0 {
		if opts.Sample > 0 && opts.Sample < points {
			// Seeded sample without replacement (partial Fisher-Yates).
			perm := make([]int, points)
			for i := range perm {
				perm[i] = i + 1
			}
			r := &splitmix{s: uint64(opts.Seed) ^ 0xA0761D6478BD642F}
			for i := 0; i < opts.Sample; i++ {
				j := i + int(r.next()%uint64(points-i))
				perm[i], perm[j] = perm[j], perm[i]
				targets = append(targets, perm[i])
			}
		} else {
			for k := 1; k <= points; k++ {
				targets = append(targets, k)
			}
		}
	}

	for _, k := range targets {
		if k < 1 || k > points {
			return nil, fmt.Errorf("crashtest: point %d outside space [1,%d]", k, points)
		}
		in := fault.New(opts.Seed)
		in.ArmPowerCut(k)
		or, pend, snaps, pm, sd, perr := runPass(opts, in)
		if perr != nil {
			return nil, perr
		}
		rep.Tested++
		if in.Alive() {
			rep.Failures = append(rep.Failures, Failure{Point: k,
				Desc: "armed cut never fired: device-op sequence diverged between passes (nondeterministic harness)"})
			continue
		}
		if desc := verify(or, pend, snaps, in, pm, sd); desc != "" {
			rep.Failures = append(rep.Failures, Failure{Point: k, Desc: desc})
		}
		if rep.Tested%100 == 0 {
			logf("tested %d/%d points, %d failures", rep.Tested, len(targets), len(rep.Failures))
		}
	}
	return rep, nil
}
