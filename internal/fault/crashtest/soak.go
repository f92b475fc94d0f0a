// Bit-rot soak (DESIGN.md §5.8): the latent-corruption counterpart of the
// crash torture. A seeded workload builds a multi-tier store, then seeded
// bit rot is injected into the at-rest images of a subset of the live
// tables — persistent-memory and SSD alike — and the oracle asserts the
// full detect → quarantine → restart → repair lifecycle:
//
//   - rot that no scrub has seen yet is met first by a major compaction: the
//     compaction succeeds, installs nothing it read from the rotted table, and
//     leaves the table quarantined — every acked key still reads back exactly
//     or as ErrUnavailable;
//   - one scrub pass detects every injected corruption (100% coverage);
//   - after quarantine no read ever returns a wrong value: every acked key
//     is either exactly correct or fails with ErrUnavailable, and MultiGet
//     agrees with Get key-for-key (per-key blast radius);
//   - the quarantine survives a clean restart through the manifest;
//   - writes keep landing under quarantine: a seeded subset of the keys
//     inside quarantined ranges is deleted and compacted to SSD before
//     repair, and none of them may come back — a tombstone dropped above a
//     corpse would let salvage resurrect the value;
//   - RepairQuarantined drains the quarantine completely; afterwards every
//     key reads without error, keys served correctly before repair stay
//     exactly correct (zero lost acked writes when an intact source of the
//     range survives), and keys that were unavailable resolve to the newest
//     acked value, an older acked value (partial salvage), or not-found —
//     never to a value that was never acknowledged;
//   - a fresh write lands and a final scrub pass is clean.
//
// Everything derives from SoakOptions.Seed: workload, rot placement, and xor
// masks reproduce bit-for-bit.
package crashtest

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"pmblade/internal/device"
	"pmblade/internal/engine"
	"pmblade/internal/fault"
	"pmblade/internal/pmem"
	"pmblade/internal/ssd"
)

// SoakOptions configures a bit-rot soak run.
type SoakOptions struct {
	// Seed drives the workload, the victim selection, and the rot bytes.
	Seed int64
	// Ops is the workload length in client operations (default 900).
	Ops int
	// Rots is the number of distinct corruptions to inject (default 50).
	Rots int
	// CheckpointEvery inserts an engine Checkpoint every N client ops
	// (default 64).
	CheckpointEvery int
	// Log receives progress lines; nil silences.
	Log func(format string, args ...any)
}

func (o SoakOptions) withDefaults() SoakOptions {
	if o.Ops == 0 {
		o.Ops = 900
	}
	if o.Rots == 0 {
		o.Rots = 50
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 64
	}
	return o
}

// SoakReport summarises a bit-rot soak run.
type SoakReport struct {
	Seed      int64
	Ops       int
	Targets   int // live at-rest images eligible for rot
	Rotted    int // distinct bytes corrupted
	RottedPM  int
	RottedSSD int
	Incidents int // scrub detections (first pass)
	// Sweep outcomes over the acked key space.
	Unavailable int // keys ErrUnavailable under quarantine (pre-repair)
	Salvaged    int // unavailable keys restored to their newest acked value
	Reverted    int // unavailable keys resolved to an older acked value
	Lost        int // unavailable keys resolved to not-found
	DeletedQ    int // keys deleted under quarantine (must stay not-found)
	Failures    []string
}

// String renders the report with the reproduction line for failures.
func (r *SoakReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scrub-soak: seed=%d ops=%d targets=%d rots=%d (pm=%d ssd=%d) incidents=%d\n",
		r.Seed, r.Ops, r.Targets, r.Rotted, r.RottedPM, r.RottedSSD, r.Incidents)
	fmt.Fprintf(&b, "  keys: unavailable=%d deleted-under-quarantine=%d salvaged=%d reverted=%d lost=%d failures=%d\n",
		r.Unavailable, r.DeletedQ, r.Salvaged, r.Reverted, r.Lost, len(r.Failures))
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  FAIL: %s\n    reproduce: pmblade-crash -scrub -seed %d -ops %d -rots %d\n",
			f, r.Seed, r.Ops, r.Rotted)
	}
	return b.String()
}

func (r *SoakReport) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// rotKey identifies one corrupted byte for dedup: two rots on the same byte
// would xor it back to its original value.
type rotKey struct {
	dev device.Class
	id  uint64
	off int64
}

// soakConfig widens the torture harness configuration into a soak-shaped
// store: small tables over four partitions so the quiesced image set is
// dozens of independent at-rest images (a wide rot surface with intact
// neighbors to route around), not the torture's minimal couple of tables.
func soakConfig(in *fault.Injector) engine.Config {
	cfg := harnessConfig(in)
	cfg.SSTableBytes = 16 << 10
	// The threshold strategy wipes the WHOLE level-0 once the global PM
	// table count reaches the trigger; with eight partitions the torture's
	// trigger of 4 would leave PM empty at every quiesce point. 12 keeps a
	// standing PM population in the rot surface.
	cfg.L0TriggerTables = 12
	cfg.PartitionBoundaries = [][]byte{
		[]byte("skey-040"), []byte("skey-080"), []byte("skey-120"), []byte("skey-160"),
		[]byte("skey-200"), []byte("skey-240"), []byte("skey-280"),
	}
	return cfg
}

// soakKeyspace is larger than the torture's: the soak wants breadth (many
// keys spread over many tables) more than write-write collision density.
const soakKeyspace = 320

func skey(r *splitmix) string { return fmt.Sprintf("skey-%03d", r.next()%soakKeyspace) }

// spad fattens values so tables fill and split: a wide rot surface needs
// bytes at rest, not just keys.
var spad = strings.Repeat(".", 400)

// soakScanCheck sweeps range reads across the partition grid (one range per
// partition of soakConfig). Scan and NewIterator must agree on every range:
// identical entries when the range is readable, ErrUnavailable from both when
// quarantine overlaps it (quarantineOK) — and every scanned value must match
// Get. With quarantine present this exercises the iterator's open-time
// quarantine guard; on a repaired store (quarantineOK=false) any range error
// is a failure. Returns how many ranges were unavailable.
func soakScanCheck(e *engine.DB, rep *SoakReport, phase string, quarantineOK bool) int {
	bounds := soakConfig(nil).PartitionBoundaries
	starts := append([][]byte{nil}, bounds...)
	unavailable := 0
	for i, start := range starts {
		var end []byte
		if i < len(bounds) {
			end = bounds[i]
		}
		sres, serr := e.Scan(start, end, 0)
		it, ierr := e.NewIterator(start, end)
		if serr != nil || ierr != nil {
			if ierr == nil {
				it.Close()
			}
			if !quarantineOK {
				rep.failf("%s: range [%q,%q) unreadable (scan err=%v, iterator err=%v)", phase, start, end, serr, ierr)
				continue
			}
			if (serr == nil) != (ierr == nil) || (serr != nil && !errors.Is(serr, engine.ErrUnavailable)) ||
				(ierr != nil && !errors.Is(ierr, engine.ErrUnavailable)) {
				rep.failf("%s: Scan and NewIterator disagree on quarantined range [%q,%q): scan err=%v, iterator err=%v",
					phase, start, end, serr, ierr)
				continue
			}
			unavailable++
			continue
		}
		n := 0
		mismatch := false
		for ; it.Valid(); it.Next() {
			if n < len(sres) && (string(it.Key()) != string(sres[n].Key) || string(it.Value()) != string(sres[n].Value)) {
				rep.failf("%s: iterator entry %d (%q) disagrees with Scan (%q) in range [%q,%q)",
					phase, n, it.Key(), sres[n].Key, start, end)
				mismatch = true
				break
			}
			n++
		}
		if werr := it.Err(); werr != nil {
			rep.failf("%s: iterator failed mid-range [%q,%q): %v", phase, start, end, werr)
		} else if !mismatch && n != len(sres) {
			rep.failf("%s: iterator yielded %d entries, Scan %d, in range [%q,%q)", phase, n, len(sres), start, end)
		}
		it.Close()
		for _, r := range sres {
			got, ok, gerr := e.Get(r.Key)
			if gerr != nil || !ok || string(got) != string(r.Value) {
				rep.failf("%s: Scan(%s) = %q disagrees with Get (%q, found=%v, err=%v)",
					phase, r.Key, r.Value, got, ok, gerr)
			}
		}
	}
	return unavailable
}

// RunSoak executes one bit-rot soak. Unlike Run, a single pass suffices: rot
// is injected at rest after the workload quiesces, so no crash-point
// enumeration is involved and determinism needs only the seed.
func RunSoak(opts SoakOptions) (*SoakReport, error) {
	opts = opts.withDefaults()
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &SoakReport{Seed: opts.Seed, Ops: opts.Ops}

	// Phase 1: seeded workload, tracking every acked value per key — the
	// full history, because partial salvage may legitimately resurface an
	// older acked version once the newest one's only copy rots away.
	in := fault.New(opts.Seed)
	db, err := engine.Open(soakConfig(in))
	if err != nil {
		return nil, fmt.Errorf("soak open: %w", err)
	}
	vals := make(map[string]*string)         // newest acked value; nil = tombstone
	hist := make(map[string]map[string]bool) // every value ever acked
	record := func(k string, v *string) {
		vals[k] = v
		if v != nil {
			if hist[k] == nil {
				hist[k] = make(map[string]bool)
			}
			hist[k][*v] = true
		}
	}
	rng := &splitmix{s: uint64(opts.Seed) ^ 0xC2B2AE3D27D4EB4F}
	for i := 0; i < opts.Ops; i++ {
		if opts.CheckpointEvery > 0 && i > 0 && i%opts.CheckpointEvery == 0 {
			if _, cerr := db.Checkpoint(); cerr != nil {
				return nil, fmt.Errorf("soak checkpoint at op %d: %w", i, cerr)
			}
		}
		switch r := rng.next() % 10; {
		case r < 6:
			k, v := skey(rng), fmt.Sprintf("v%06d.%x.%s", i, rng.next()&0xffff, spad)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				return nil, fmt.Errorf("soak put at op %d: %w", i, err)
			}
			record(k, strp(v))
		case r < 8:
			k := skey(rng)
			if err := db.Delete([]byte(k)); err != nil {
				return nil, fmt.Errorf("soak delete at op %d: %w", i, err)
			}
			record(k, nil)
		default:
			n := 2 + int(rng.next()%4)
			var b engine.Batch
			writes := make(map[string]*string)
			for j := 0; j < n; j++ {
				k := skey(rng)
				if rng.next()%4 == 0 {
					writes[k] = nil
					b.Delete([]byte(k))
				} else {
					v := fmt.Sprintf("v%06d.%d.%x.%s", i, j, rng.next()&0xffff, spad)
					writes[k] = strp(v)
					b.Put([]byte(k), []byte(v))
				}
			}
			if err := db.Apply(&b); err != nil {
				return nil, fmt.Errorf("soak batch at op %d: %w", i, err)
			}
			for k, v := range writes {
				record(k, v)
			}
		}
	}
	// Quiesce: everything acked is now at rest in tables (and the manifest),
	// so the rot surface covers the whole acked key space.
	if _, err := db.Checkpoint(); err != nil {
		return nil, fmt.Errorf("soak final checkpoint: %w", err)
	}

	// sweep reads every acked key through Get and MultiGet, which must agree
	// key for key (per-key blast radius), and hands Get's outcome to check.
	sweep := func(e *engine.DB, phase string, check func(k string, got []byte, ok bool, err error)) error {
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		bkeys := make([][]byte, len(keys))
		for i, k := range keys {
			bkeys[i] = []byte(k)
		}
		res, merr := e.MultiGet(bkeys)
		if merr != nil {
			return fmt.Errorf("%s MultiGet: %w", phase, merr)
		}
		for i, k := range keys {
			got, ok, gerr := e.Get(bkeys[i])
			check(k, got, ok, gerr)
			r := res[i]
			if (r.Err != nil) != (gerr != nil) || (gerr != nil && !errors.Is(r.Err, gerr)) ||
				r.Found != ok || (ok && string(r.Value) != string(got)) {
				rep.failf("%s: MultiGet(%s) = (%q, found=%v, err=%v) disagrees with Get (%q, found=%v, err=%v)",
					phase, k, r.Value, r.Found, r.Err, got, ok, gerr)
			}
		}
		return nil
	}
	// sweepQuarantined is the oracle under quarantine: every acked key is
	// exactly correct or ErrUnavailable — never a stale value, never a silent
	// not-found for a live key. It collects the unavailable keys.
	unavailable := make(map[string]bool)
	sweepQuarantined := func(phase string) error {
		return sweep(db, phase, func(k string, got []byte, ok bool, gerr error) {
			if errors.Is(gerr, engine.ErrUnavailable) {
				unavailable[k] = true
				return
			}
			if gerr != nil {
				rep.failf("%s Get(%s): unexpected error %v", phase, k, gerr)
				return
			}
			want := vals[k]
			switch {
			case want == nil && ok:
				rep.failf("%s Get(%s): tombstone resurrected as %q", phase, k, got)
			case want != nil && !ok:
				rep.failf("%s Get(%s): acked write silently lost (want %q)", phase, k, *want)
			case want != nil && string(got) != *want:
				rep.failf("%s Get(%s) = %q: stale value served past quarantine (want %q)", phase, k, got, *want)
			}
		})
	}

	// Phase 1b: rot that a compaction finds before any scrub does. One byte of
	// a table of the SSD run rots; a write into its partition gives the major
	// compaction a level-0 to merge that run with, so it reads the rotted
	// block. A compaction that took its input's failure for its end would
	// install the short output, retire the table, and the keys behind the rot
	// would be silently gone with nothing left to scrub.
	for _, tg := range db.RotTargets() {
		if tg.Device != device.SSD {
			continue
		}
		ev, rerr := db.SSDDevice().Rot(ssd.FileID(tg.ID), 0, tg.Limit)
		if rerr != nil {
			return nil, fmt.Errorf("soak: ssd rot before compaction: %w", rerr)
		}
		// Partition i of soakConfig starts at skey-(40*i).
		k, v := fmt.Sprintf("skey-%03d", 40*tg.Partition), fmt.Sprintf("prescrub.%x.%s", rng.next()&0xffff, spad)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			return nil, fmt.Errorf("soak put before compaction: %w", err)
		}
		record(k, strp(v))
		if err := db.FlushAll(); err != nil {
			return nil, fmt.Errorf("soak flush over undiscovered rot: %w", err)
		}
		if err := db.MajorCompactAll(); err != nil {
			return nil, fmt.Errorf("soak major compaction over undiscovered rot: %w", err)
		}
		quarantined := false
		for _, r := range db.QuarantineRecords() {
			quarantined = quarantined || (r.Device == device.SSD && r.ID == tg.ID)
		}
		if !quarantined {
			rep.failf("a major compaction read SSD image %d, rotted at offset %d, and did not quarantine it", tg.ID, ev.Off)
		}
		if err := sweepQuarantined("compaction-over-rot"); err != nil {
			return nil, err
		}
		logf("compaction over undiscovered rot: image %d quarantined, %d keys unavailable", tg.ID, len(unavailable))
		break
	}
	// The level-0 trigger compacts every fourth PM table down to SSD, so a
	// quiesced store may have an empty level-0 — and a flush round can itself
	// tip the trigger. Flush until PM images are live (bounded; the trigger
	// fires at most every fourth table, so a couple of rounds suffice).
	havePMImage := func() bool {
		for _, t := range db.RotTargets() {
			if t.Device == device.PM {
				return true
			}
		}
		return false
	}
	for j := 0; j < 6 && !havePMImage(); j++ {
		for i := 0; i < 6; i++ {
			k, v := skey(rng), fmt.Sprintf("pmrot%d.%d.%x", j, i, rng.next()&0xffff)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				return nil, fmt.Errorf("soak pm-resident put: %w", err)
			}
			record(k, strp(v))
		}
		if err := db.FlushAll(); err != nil {
			return nil, fmt.Errorf("soak pm-resident flush: %w", err)
		}
	}
	if !havePMImage() {
		return nil, fmt.Errorf("soak: no live PM images after flush rounds (harness bug)")
	}
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// Phase 2: inject rot. Every other live image is a victim — the
	// survivors are what the read path must route to — with both device
	// classes represented so PM and SSD detection are each exercised.
	targets := db.RotTargets()
	rep.Targets = len(targets)
	if len(targets) == 0 {
		return nil, fmt.Errorf("soak: no live tables to corrupt (harness bug)")
	}
	var victims []engine.RotTarget
	havePM, haveSSD := false, false
	for i, t := range targets {
		if i%2 == 0 {
			victims = append(victims, t)
			havePM = havePM || t.Device == device.PM
			haveSSD = haveSSD || t.Device == device.SSD
		}
	}
	for _, t := range targets {
		if (t.Device == device.PM && !havePM) || (t.Device == device.SSD && !haveSSD) {
			victims = append(victims, t)
			havePM = havePM || t.Device == device.PM
			haveSSD = haveSSD || t.Device == device.SSD
		}
	}
	pm, sd := db.PMDevice(), db.SSDDevice()
	rotted := make(map[rotKey]bool)
	rotsByImage := make(map[rotKey][]int64) // (dev,id) -> corrupted offsets
	for attempts := 0; len(rotted) < opts.Rots; attempts++ {
		if attempts > opts.Rots*100 {
			return nil, fmt.Errorf("soak: could not place %d distinct rots in %d attempts", opts.Rots, attempts)
		}
		t := victims[attempts%len(victims)]
		var rk rotKey
		switch t.Device {
		case device.PM:
			ev, rerr := pm.Rot(pmem.Addr(t.ID), 0, t.Limit)
			if rerr != nil {
				return nil, fmt.Errorf("soak: pm rot: %w", rerr)
			}
			rk = rotKey{device.PM, uint64(ev.Addr), ev.Off}
		case device.SSD:
			// Alternate between the whole data region (detection spread) and
			// the first block only (concentration: real rot clusters, and a
			// table whose later blocks stay intact exercises partial salvage).
			window := t.Limit
			if attempts%2 == 1 && window > 4096 {
				window = 4096
			}
			ev, rerr := sd.Rot(ssd.FileID(t.ID), 0, window)
			if rerr != nil {
				return nil, fmt.Errorf("soak: ssd rot: %w", rerr)
			}
			rk = rotKey{device.SSD, uint64(ev.File), ev.Off}
		}
		if rotted[rk] {
			continue // same byte twice would xor the rot away
		}
		rotted[rk] = true
		rotsByImage[rotKey{rk.dev, rk.id, 0}] = append(rotsByImage[rotKey{rk.dev, rk.id, 0}], rk.off)
		if rk.dev == device.PM {
			rep.RottedPM++
		} else {
			rep.RottedSSD++
		}
	}
	rep.Rotted = len(rotted)
	logf("injected %d rots (%d pm, %d ssd) across %d victims of %d targets",
		rep.Rotted, rep.RottedPM, rep.RottedSSD, len(victims), len(targets))

	// Phase 3: one scrub pass must detect every injected corruption — PM
	// images by their whole-image checksum, SSD bytes by the covering block.
	incidents, err := db.ScrubOnce()
	if err != nil {
		return nil, fmt.Errorf("soak scrub: %w", err)
	}
	rep.Incidents = len(incidents)
	for rk := range rotted {
		covered := false
		for _, inc := range incidents {
			if inc.Device != rk.dev || inc.ID != rk.id {
				continue
			}
			if rk.dev == device.PM || (rk.off >= inc.Offset && rk.off < inc.Offset+inc.Length) {
				covered = true
				break
			}
		}
		if !covered {
			rep.failf("scrub missed rot at %s image %d offset %d", rk.dev, rk.id, rk.off)
		}
	}
	quarantined := make(map[rotKey]bool)
	for _, r := range db.QuarantineRecords() {
		quarantined[rotKey{r.Device, r.ID, 0}] = true
	}
	for img := range rotsByImage {
		if !quarantined[img] {
			rep.failf("rotted %s image %d was detected but not quarantined", img.dev, img.id)
		}
	}
	logf("scrub: %d incidents, %d images quarantined", len(incidents), len(quarantined))

	// Phase 4: sweep under quarantine (the oracle of sweepQuarantined), with
	// MultiGet mirroring Get per key. What repair is judged against is what
	// is unavailable now, not what was before later writes covered it.
	clear(unavailable)
	if err := sweepQuarantined("pre-repair"); err != nil {
		return nil, err
	}
	rep.Unavailable = len(unavailable)
	// Range reads under quarantine: a key that Get refuses must also make the
	// covering range refuse — if every range scan succeeded while keys are
	// unavailable, the scan/iterator quarantine guard has a hole.
	unavailRanges := soakScanCheck(db, rep, "pre-repair", true)
	if len(unavailable) > 0 && unavailRanges == 0 {
		rep.failf("pre-repair: %d keys unavailable but every range scan succeeded (quarantine guard hole)", len(unavailable))
	}
	logf("pre-repair sweep: %d/%d keys unavailable, %d ranges unavailable", len(unavailable), len(keys), unavailRanges)

	// Phase 5: clean restart. The quarantine must come back from the
	// manifest — a corrupt table must never be resurrected into the live set.
	before := len(db.QuarantineRecords())
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("soak close: %w", err)
	}
	re, err := engine.RecoverCurrent(soakConfig(nil), pm, sd)
	if err != nil {
		return nil, fmt.Errorf("soak recovery with quarantine present: %w", err)
	}
	defer func() { _ = re.Close() }()
	if after := len(re.QuarantineRecords()); after != before {
		rep.failf("restart kept %d of %d quarantine records", after, before)
	}

	// Phase 5b: writes under quarantine. A seeded subset of the keys inside
	// quarantined ranges is deleted, and the tombstones are flushed and major-
	// compacted to SSD while the corpses still wait below them. A compaction
	// that took the run for the bottom level would drop the tombstones here,
	// and repair would salvage the deleted values back.
	deletedQ := make(map[string]bool)
	recs := re.QuarantineRecords()
	for _, k := range keys {
		quarantined := false
		for _, r := range recs {
			quarantined = quarantined || (k >= string(r.Smallest) && k <= string(r.Largest))
		}
		if !quarantined || rng.next()%3 != 0 {
			continue
		}
		if err := re.Delete([]byte(k)); err != nil {
			return nil, fmt.Errorf("soak delete under quarantine: %w", err)
		}
		record(k, nil)
		deletedQ[k] = true
	}
	rep.DeletedQ = len(deletedQ)
	if err := re.FlushAll(); err != nil {
		return nil, fmt.Errorf("soak flush under quarantine: %w", err)
	}
	if err := re.MajorCompactAll(); err != nil {
		return nil, fmt.Errorf("soak major compaction under quarantine: %w", err)
	}
	logf("deleted %d keys inside quarantined ranges, compacted to SSD", len(deletedQ))

	// Phase 6: repair must drain the quarantine and restore full readability.
	if err := re.RepairQuarantined(); err != nil {
		return nil, fmt.Errorf("soak repair: %w", err)
	}
	if left := re.QuarantineRecords(); len(left) != 0 {
		rep.failf("repair left %d quarantine records behind", len(left))
	}
	err = sweep(re, "post-repair", func(k string, got []byte, ok bool, gerr error) {
		if gerr != nil {
			rep.failf("post-repair Get(%s): %v (repair must restore readability)", k, gerr)
			return
		}
		if deletedQ[k] && ok {
			rep.failf("post-repair Get(%s) = %q: a key deleted under quarantine came back", k, got)
			return
		}
		want := vals[k]
		newest := (want == nil && !ok) || (want != nil && ok && string(got) == *want)
		if !unavailable[k] {
			// An intact source of this key's range survived the rot: the key
			// was served correctly under quarantine and repair must not
			// regress it — zero lost acked writes.
			if !newest {
				rep.failf("post-repair Get(%s) = (%q, found=%v): repair regressed a key an intact source held (want %v)",
					k, got, ok, vals[k])
			}
			return
		}
		switch {
		case newest:
			rep.Salvaged++
		case !ok:
			rep.Lost++ // the only copy of the newest version rotted: loss acknowledged
		case hist[k][string(got)]:
			rep.Reverted++ // partial salvage resurfaced an older acked version
		default:
			rep.failf("post-repair Get(%s) = %q: value was never acknowledged", k, got)
		}
	})
	if err != nil {
		return nil, err
	}
	// Repair reinstalls views: every range must now read cleanly and agree
	// between Scan, the iterator, and Gets.
	soakScanCheck(re, rep, "post-repair", false)
	logf("post-repair sweep: salvaged=%d reverted=%d lost=%d", rep.Salvaged, rep.Reverted, rep.Lost)

	// Phase 7: the repaired engine accepts writes and a final scrub is clean.
	probeK, probeV := []byte("probe-after-repair"), []byte("alive")
	if perr := re.Put(probeK, probeV); perr != nil {
		rep.failf("repaired engine rejects writes: %v", perr)
	} else if got, ok, gerr := re.Get(probeK); gerr != nil || !ok || string(got) != string(probeV) {
		rep.failf("repaired engine cannot read back a fresh write (ok=%v err=%v)", ok, gerr)
	}
	final, err := re.ScrubOnce()
	if err != nil {
		return nil, fmt.Errorf("soak final scrub: %w", err)
	}
	if len(final) != 0 {
		rep.failf("final scrub found %d incidents on the repaired store (first: %+v)", len(final), final[0])
	}
	return rep, nil
}
