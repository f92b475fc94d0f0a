package engine

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"pmblade/internal/device"
	"pmblade/internal/kv"
	"pmblade/internal/pmem"
	"pmblade/internal/pmtable"
	"pmblade/internal/ssd"
	"pmblade/internal/sstable"
	"pmblade/internal/wal"
)

// Manifest is the durable description of the engine's structure: which PM
// tables and SSTables make up each partition, plus the live WAL files. It is
// written to a dedicated SSD file after every structural change and installed
// under the RootManifest pointer (the simulated rename of CURRENT), so a
// restart can rebuild the exact table sets and replay the WALs on top.
type Manifest struct {
	Seq uint64 `json:"seq"`
	// WALFiles are the live logs in replay order (oldest first). During a
	// checkpoint both the retiring and the fresh WAL are listed, so a crash
	// mid-checkpoint loses nothing.
	WALFiles []uint64 `json:"wal_files"`
	// WALTail is the PM address of the log tail, replayed after WALFiles;
	// absent without PM.
	WALTail    *uint64        `json:"wal_tail,omitempty"`
	Partitions []PartManifest `json:"partitions"`
	// Quarantine lists the tables pulled from the live sets after a
	// corruption detection (DESIGN.md §5.8). They are NOT in Partitions; a
	// restart re-establishes the quarantine — and the unavailable key ranges
	// — instead of resurrecting corrupt tables or forgetting the loss.
	Quarantine []QuarantineRecord `json:"quarantine,omitempty"`
}

// PartManifest is one partition's table inventory.
type PartManifest struct {
	L0Unsorted []uint64   `json:"l0_unsorted"` // PM table addrs, newest first
	L0Sorted   []uint64   `json:"l0_sorted"`   // PM table addrs, ascending
	L0SSD      []uint64   `json:"l0_ssd"`      // SSTable files, newest first
	Levels     [][]uint64 `json:"levels"`      // run files per level below level 0, each ascending
}

// RootManifest is the device root-pointer name under which the current
// manifest is installed (the CURRENT file of a conventional LSM engine).
const RootManifest = "MANIFEST"

// manifestMagic heads every manifest file so recovery can identify manifest
// candidates among the device's files without external bookkeeping.
const manifestMagic = "PMBMF1\r\n"

var manifestCRC = crc32.MakeTable(crc32.Castagnoli)

// encodeManifest frames m as magic(8) | crc(4) | len(4) | json, so a torn or
// partial manifest write is detected (and rejected) during recovery.
func encodeManifest(m Manifest) ([]byte, error) {
	raw, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(raw)+16)
	buf = append(buf, manifestMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(raw, manifestCRC))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(raw)))
	return append(buf, raw...), nil
}

// readManifest loads and verifies a framed manifest file. The frame checksum
// is verified before any byte of the payload is decoded.
func readManifest(sd *ssd.Device, f ssd.FileID) (Manifest, error) {
	size := sd.Size(f)
	if size < 0 {
		return Manifest{}, fmt.Errorf("engine: manifest file %d missing", f)
	}
	if size < 16 {
		return Manifest{}, fmt.Errorf("engine: manifest file %d truncated (%d bytes)", f, size)
	}
	raw := make([]byte, size)
	if err := sd.ReadAt(f, 0, raw, device.CauseManifest); err != nil {
		return Manifest{}, err
	}
	if string(raw[:8]) != manifestMagic {
		return Manifest{}, fmt.Errorf("engine: manifest file %d: bad magic", f)
	}
	crc := binary.LittleEndian.Uint32(raw[8:12])
	plen := int64(binary.LittleEndian.Uint32(raw[12:16]))
	if 16+plen > size {
		return Manifest{}, fmt.Errorf("engine: manifest file %d torn (%d of %d payload bytes)", f, size-16, plen)
	}
	payload := raw[16 : 16+plen]
	if crc32.Checksum(payload, manifestCRC) != crc {
		return Manifest{}, fmt.Errorf("engine: manifest file %d: checksum mismatch", f)
	}
	var m Manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return Manifest{}, fmt.Errorf("engine: manifest corrupt: %w", err)
	}
	return m, nil
}

// lockAll acquires every maintenance lock (majorMu, then each partition's
// maint in partition order) so the table sets cannot change under a
// manifest snapshot.
func (db *DB) lockAll() {
	db.majorMu.Lock()
	for _, p := range db.partitions {
		p.maint.Lock()
	}
}

// unlockAll releases what lockAll acquired.
func (db *DB) unlockAll() {
	for i := len(db.partitions) - 1; i >= 0; i-- {
		db.partitions[i].maint.Unlock()
	}
	db.majorMu.Unlock()
}

// buildManifest snapshots the current structure. extraWAL, when non-zero, is
// a retiring log listed ahead of the current one (checkpoint in flight).
// Callers hold every maintenance lock (lockAll) so the snapshot is
// consistent.
func (db *DB) buildManifest(extraWAL uint64) Manifest {
	m := Manifest{Seq: db.seq.Load()}
	if extraWAL != 0 {
		m.WALFiles = append(m.WALFiles, extraWAL)
	}
	db.walMu.Lock()
	if db.wal != nil {
		m.WALFiles = append(m.WALFiles, uint64(db.wal.File()))
	}
	db.walMu.Unlock()
	if db.walTail != nil {
		addr := uint64(db.walTail.Addr())
		m.WALTail = &addr
	}
	for _, p := range db.partitions {
		s := p.state.Load()
		var pm PartManifest
		for _, t := range s.pmUnsorted {
			pm.L0Unsorted = append(pm.L0Unsorted, uint64(t.Addr()))
		}
		for _, t := range s.pmSorted {
			pm.L0Sorted = append(pm.L0Sorted, uint64(t.Addr()))
		}
		for _, t := range s.ssdL0 {
			pm.L0SSD = append(pm.L0SSD, uint64(t.File()))
		}
		for _, run := range s.runs {
			var files []uint64
			for _, t := range run {
				files = append(files, uint64(t.File()))
			}
			pm.Levels = append(pm.Levels, files)
		}
		m.Partitions = append(m.Partitions, pm)
	}
	m.Quarantine = db.QuarantineRecords()
	return m
}

// installManifest is the one way the durable root moves: under every
// maintenance lock (it takes them itself — callers hold none) it writes the
// current structure to a fresh SSD file, installs it under the RootManifest
// pointer and returns its id. extraWAL is buildManifest's. The write path is
// sync-then-rename: the file is fully synced before the root pointer moves, so
// the installed root always names an intact manifest; the one it replaces is
// kept as the recovery fallback and the one before that deleted. The new root
// names none of the tables retired since the last install, so the retirement
// queue is drained here, and only here. (The fallback may still name them; it
// is consulted only if the freshly synced root is unreadable, which the
// protocol prevents.) A failed install leaves root, chain and queue as they
// were. Without a WAL there is no manifest — nothing survives a crash, and
// retirement was immediate — so it does nothing.
func (db *DB) installManifest(extraWAL uint64) (ssd.FileID, error) {
	if db.cfg.DisableWAL {
		return 0, nil
	}
	db.lockAll()
	defer db.unlockAll()
	raw, err := encodeManifest(db.buildManifest(extraWAL))
	if err != nil {
		return 0, err
	}
	f := db.ssd.Create()
	err = db.retryDurable(func() error {
		_, e := db.ssd.Append(f, raw, device.CauseManifest)
		return e
	})
	if err == nil {
		err = db.retryDurable(func() error { return db.ssd.Sync(f) })
	}
	if err == nil {
		err = db.ssd.SetRoot(RootManifest, f)
	}
	if err != nil {
		db.ssd.Delete(f)
		return 0, err
	}
	if db.manifestPrev != 0 {
		db.ssd.Delete(db.manifestPrev)
	}
	db.manifestPrev, db.manifestCur = db.manifestCur, f

	db.obsoleteMu.Lock()
	retired := db.obsolete
	db.obsolete = nil
	db.obsoleteMu.Unlock()
	for _, free := range retired {
		free()
	}
	return f, nil
}

// SaveManifest installs a manifest of the current structure once every
// scheduled flush has run, and returns its id (0 without a WAL).
func (db *DB) SaveManifest() (ssd.FileID, error) {
	db.drainFlushes()
	return db.installManifest(0)
}

// Checkpoint makes the current state durable and bounds recovery work.
//
// Crash-consistency protocol (DESIGN.md §5.4): the WAL is switched inside a
// commit turn and a bridging manifest listing BOTH logs is installed before
// the turn ends, so no writer can commit to the fresh log first — a crash at
// any instant therefore finds a durable manifest covering every acknowledged
// write. The turn first destages the log tail into the old log's file, so the
// old log is whole in its file and the tail the fresh writer takes over is
// empty — unless the engine is degraded, when the tail is handed over as it
// is. If the install fails the same turn puts the old log back and deletes
// the fresh one: no write is ever acknowledged from a log no manifest names.
// FlushAll then pushes the old log's memtables to level-0, a second manifest
// drops the old log from the live set, and only then is the old log deleted;
// if that install fails both logs stay live and listed.
func (db *DB) Checkpoint() (ssd.FileID, error) {
	var old *wal.Writer
	if db.wal != nil {
		// Every earlier turn has inserted what it logged: at the switch the
		// memtables cover the old log and the new one is empty.
		var err error
		db.turn(func() {
			// A degraded engine's old file may end in a torn record that a
			// destage would bury its records behind. It takes no more writes,
			// so its tail passes to the fresh writer as it is and replays
			// above the files.
			if db.loadBgErr() == nil {
				if err = db.retryDurable(db.wal.Destage); err != nil {
					db.logFailed(err)
					return
				}
			}
			fresh := wal.NewTailWriter(db.ssd, db.walTail)
			old = db.swapWAL(fresh)
			db.drainFlushes()
			if _, err = db.installManifest(uint64(old.File())); err != nil {
				db.swapWAL(old)
				fresh.Close()
				fresh.Delete()
			}
		})
		if err != nil {
			return 0, err
		}
	}
	if err := db.FlushAll(); err != nil {
		return 0, err
	}
	mf, err := db.SaveManifest()
	if err != nil {
		return 0, err
	}
	if old != nil {
		old.Close()
		old.Delete()
	}
	return mf, nil
}

// swapWAL makes w the live log and returns the one it replaces. Only a commit
// turn calls it.
func (db *DB) swapWAL(w *wal.Writer) *wal.Writer {
	db.walMu.Lock()
	defer db.walMu.Unlock()
	old := db.wal
	db.wal = w
	return old
}

// manifestCandidates lists manifest files to attempt recovery from: the
// installed root first, then every other intact manifest on the device in
// descending (seq, file-id) order.
func manifestCandidates(sd *ssd.Device) []ssd.FileID {
	var out []ssd.FileID
	seen := make(map[ssd.FileID]bool)
	if id, ok := sd.Root(RootManifest); ok {
		out = append(out, id)
		seen[id] = true
	}
	type cand struct {
		id  ssd.FileID
		seq uint64
	}
	var scanned []cand
	head := make([]byte, 8)
	for _, id := range sd.Files() {
		if seen[id] || sd.Size(id) < 16 {
			continue
		}
		if err := sd.ReadAt(id, 0, head, device.CauseManifest); err != nil || string(head) != manifestMagic {
			continue
		}
		m, err := readManifest(sd, id)
		if err != nil {
			continue
		}
		scanned = append(scanned, cand{id, m.Seq})
	}
	sort.Slice(scanned, func(i, j int) bool {
		if scanned[i].seq != scanned[j].seq {
			return scanned[i].seq > scanned[j].seq
		}
		return scanned[i].id > scanned[j].id
	})
	for _, c := range scanned {
		out = append(out, c.id)
	}
	return out
}

// reopen opens the tables of partition p that one manifest list names, in
// order. A table whose reopen fails on corruption becomes one of p's corpses
// and is left out — recovery proceeds with its key range marked unavailable
// (bounds unknown, so the whole partition is conservatively flagged) instead
// of abandoning an otherwise-intact manifest. Any other failure aborts the
// candidate.
func reopen[T any](db *DB, p *partition, dev device.Class, ids []uint64, open func(id uint64) (T, error)) ([]T, error) {
	var ts []T
	for _, id := range ids {
		t, err := open(id)
		var ce *device.CorruptionError
		switch {
		case err == nil:
			ts = append(ts, t)
		case errors.As(err, &ce):
			p.corpses = append(p.corpses, corpse{QuarantineRecord: QuarantineRecord{
				Device: dev, ID: id, Partition: p.id, Detail: err.Error(),
			}})
			db.metrics.QuarantineIncidents.Add(1)
		default:
			return nil, fmt.Errorf("engine: reopen %s table %d of partition %d: %w", dev, id, p.id, err)
		}
	}
	return ts, nil
}

// RecoverCurrent rebuilds an engine over existing devices from the installed
// manifest root, falling back to the previous intact manifest if the current
// one is torn, missing, or references unreadable state. This is the restart
// entry point after a power cut.
func RecoverCurrent(cfg Config, pm *pmem.Device, sd *ssd.Device) (*DB, error) {
	cands := manifestCandidates(sd)
	if len(cands) == 0 {
		return nil, fmt.Errorf("engine: no manifest on device (root %q unset and no intact candidates)", RootManifest)
	}
	var lastErr error
	for _, id := range cands {
		db, err := Recover(cfg, pm, sd, id)
		if err == nil {
			return db, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("engine: no recoverable manifest among %d candidates: %w", len(cands), lastErr)
}

// Recover rebuilds an engine over existing devices from a saved manifest:
// PM tables and SSTables are reopened in place and the live WALs are
// replayed into the memtables. Config must match the one the data was
// written with.
//
// Before returning, Recover makes its own outcome durable: replayed entries
// are re-logged into a fresh WAL and a new manifest is installed, so a
// second crash immediately after recovery loses nothing.
func Recover(cfg Config, pm *pmem.Device, sd *ssd.Device, manifestFile ssd.FileID) (*DB, error) {
	cfg = cfg.withDefaults()
	m, err := readManifest(sd, manifestFile)
	if err != nil {
		return nil, err
	}

	db := newDB(cfg, pm, sd)
	db.seq.Store(m.Seq)
	db.manifestCur = manifestFile

	if want := len(cfg.PartitionBoundaries) + 1; len(m.Partitions) != want {
		return nil, fmt.Errorf("engine: manifest has %d partitions, config wants %d", len(m.Partitions), want)
	}
	for _, r := range m.Quarantine {
		if r.Partition < 0 || r.Partition >= len(m.Partitions) {
			return nil, fmt.Errorf("engine: manifest quarantines %s table %d in partition %d of %d", r.Device, r.ID, r.Partition, len(m.Partitions))
		}
	}
	if cfg.Level0OnPM && pm == nil {
		return nil, fmt.Errorf("engine: config wants PM level-0 but no PM device supplied")
	}
	openSST := func(id uint64) (*sstable.Table, error) { return sstable.Open(sd, ssd.FileID(id), db.cache) }
	openPM := func(id uint64) (*pmtable.Table, error) {
		if pm == nil {
			return nil, fmt.Errorf("engine: manifest names PM table %d but no PM device supplied", id)
		}
		return pmtable.Open(pm, pmem.Addr(id), device.CauseUnknown)
	}
	for i, pmPart := range m.Partitions {
		p := db.newPartition(i)
		l0, err := reopen(db, p, device.SSD, pmPart.L0SSD, openSST)
		if err != nil {
			return nil, err
		}
		// AddL0 prepends, so walk the manifest's newest-first list in reverse
		// to preserve recency order.
		for j := len(l0) - 1; j >= 0; j-- {
			p.tree.AddL0(l0[j])
		}
		for li, files := range pmPart.Levels {
			ts, err := reopen(db, p, device.SSD, files, openSST)
			if err != nil {
				return nil, err
			}
			p.tree.Run(li+1).Replace(nil, ts)
		}
		// Both lists are empty when level-0 is not on PM.
		unsorted, err := reopen(db, p, device.PM, pmPart.L0Unsorted, openPM)
		if err != nil {
			return nil, err
		}
		sorted, err := reopen(db, p, device.PM, pmPart.L0Sorted, openPM)
		if err != nil {
			return nil, err
		}
		p.l0.ReplaceAll(unsorted, sorted)
		// Re-establish the partition's quarantine from the manifest, behind
		// the corpses reopen just found, before its first install publishes
		// the unavailable ranges. SSD corpses are reopened when their metadata
		// tail is still intact (block-level rot) so repair can salvage their
		// verifiable blocks; an unopenable corpse stays record-only and repair
		// retires it without salvage. PM corpses never reopen — the
		// whole-image checksum that failed at quarantine time cannot pass now.
		// Corpses read without a cache: quarantined blocks must not pollute it.
		for _, r := range m.Quarantine {
			if r.Partition != i {
				continue
			}
			c := corpse{QuarantineRecord: r}
			if r.Device == device.SSD {
				if t, err := sstable.Open(sd, ssd.FileID(r.ID), nil); err == nil {
					c.t = ssdTable{t}
				}
			}
			p.corpses = append(p.corpses, c)
		}
		db.metrics.QuarantinedNow.Add(int64(len(p.corpses)))
		db.installTables(p, nil, false)
		db.partitions = append(db.partitions, p)
	}

	// Replay the live WALs — the files oldest first, then the tail — into the
	// memtables. Entries already flushed to level-0 are re-applied, which is
	// harmless: the live logs hold every sequence above the checkpoint that
	// switched to them, so the memtable — the first tier a read meets — ends up
	// with the newest version of every key written since, and a table can only
	// repeat it.
	if !cfg.DisableWAL {
		if m.WALTail != nil {
			if pm == nil {
				return nil, fmt.Errorf("engine: manifest names a log tail at PM address %d but no PM device supplied", *m.WALTail)
			}
			if db.walTail, err = wal.OpenTail(pm, pmem.Addr(*m.WALTail)); err != nil {
				return nil, fmt.Errorf("engine: %w", err)
			}
		}
		files := make([]ssd.FileID, len(m.WALFiles))
		for i, wf := range m.WALFiles {
			files[i] = ssd.FileID(wf)
		}
		maxSeq := m.Seq
		var replayed []kv.Entry
		if _, err := wal.ReplayLog(sd, files, db.walTail, func(e kv.Entry) error {
			// Recovery is single-threaded: there is no commit turn to take
			// yet.
			db.route(e.Key).state.Load().mem.Add(e)
			if e.Seq > maxSeq {
				maxSeq = e.Seq
			}
			replayed = append(replayed, e)
			return nil
		}); err != nil {
			return nil, fmt.Errorf("engine: wal replay: %w", err)
		}
		db.seq.Store(maxSeq)
		// Make the recovered state durable in its own right: re-log what was
		// replayed into the fresh writer's file — an adopted tail takes no
		// records until it is destaged — and install a manifest naming it, so
		// an immediate second crash recovers to the same state. Only then is
		// the tail emptied for new writes: until that manifest is installed,
		// the one recovery started from still needs it.
		db.wal = wal.NewTailWriter(sd, db.walTail)
		if len(replayed) > 0 {
			if err := db.retryDurable(func() error {
				_, e := db.wal.AppendBatches([][]kv.Entry{replayed})
				return e
			}); err != nil {
				return nil, fmt.Errorf("engine: re-log recovered tail: %w", err)
			}
			if err := db.retryDurable(func() error { return db.wal.Sync() }); err != nil {
				return nil, fmt.Errorf("engine: re-log recovered tail: %w", err)
			}
		}
		if _, err := db.installManifest(0); err != nil {
			return nil, fmt.Errorf("engine: install recovery manifest: %w", err)
		}
		if err := db.retryDurable(db.wal.Destage); err != nil {
			return nil, fmt.Errorf("engine: empty the log tail: %w", err)
		}
		// The replayed logs are fully covered by the re-log; retire them.
		for _, wf := range m.WALFiles {
			sd.Delete(ssd.FileID(wf))
		}
	}
	db.start()
	return db, nil
}
