package engine

import (
	"bytes"
	"time"

	"pmblade/internal/kv"
	"pmblade/internal/level0"
	"pmblade/internal/levels"
)

// Get returns the newest value of key, or ok=false when absent or deleted.
// A corrupt table encountered on the way is quarantined and the lookup
// retried once against the remaining sources (self-healing); if a
// quarantined table may have held the newest version of the key — a miss
// inside its range, or a hit served from a tier the corpse could shadow —
// Get fails with ErrUnavailable rather than lying with a silent not-found
// or a stale value.
func (db *DB) Get(key []byte) (value []byte, ok bool, err error) {
	if db.closed.Load() {
		return nil, false, ErrClosed
	}
	seq := db.beginRead()
	defer db.endRead(seq)
	return db.getAt(key, seq)
}

// getAt resolves key at an explicit snapshot sequence — the shared body of
// DB.Get and Snapshot.Get. The caller must hold a registry pin on seq.
func (db *DB) getAt(key []byte, seq uint64) (value []byte, ok bool, err error) {
	start := time.Now()
	p := db.route(key)
	e, ok, tier, err := db.get(p, key, seq)
	if err != nil && db.healCorruption(p, err) {
		// Retry at the SAME snapshot sequence: a heal retry that re-read at a
		// fresh sequence would silently move the read's point in time.
		e, ok, tier, err = db.get(p, key, seq)
	}
	if err != nil {
		return nil, false, err
	}
	if p.quarShadowed(key, ok, tier) {
		db.metrics.UnavailableReads.Add(1)
		return nil, false, ErrUnavailable
	}
	db.metrics.ReadLatency.Record(time.Since(start))
	db.metrics.CountRead(tier)
	p.reads.Add(1)
	if !ok || e.Kind == kv.KindDelete {
		return nil, false, nil
	}
	return e.Value, true, nil
}

// get resolves key at a snapshot in p's current state, reporting the serving
// tier. It returns tombstones to the caller (Kind). Copy-out boundary: every
// tier's lookup returns a view — of a memtable node, a PM-table image, a
// cached block — so the value is copied here, once, before the state — and
// with it the tables' references — is released.
func (db *DB) get(p *partition, key []byte, seq uint64) (kv.Entry, bool, Tier, error) {
	s := p.acquire()
	defer s.release()
	e, tier, err := db.lookup(s, key, seq)
	if err != nil || tier == TierMiss {
		return kv.Entry{}, false, TierMiss, err
	}
	e.Key, e.Value = key, append([]byte(nil), e.Value...)
	return e, true, tier, nil
}

// lookup walks s's tiers newest first and returns the first version of key
// visible at seq (tombstones included) with the tier that held it, or
// TierMiss.
func (db *DB) lookup(s *readState, key []byte, seq uint64) (kv.Entry, Tier, error) {
	if e, ok := s.mem.Get(key, seq); ok {
		return e, TierMemtable, nil
	}
	for _, m := range s.imm {
		if e, ok := m.Get(key, seq); ok {
			return e, TierMemtable, nil
		}
	}
	e, ok, stats, err := level0.Get(s.pmUnsorted, s.pmSorted, key, seq)
	db.metrics.L0TablesProbed.Add(int64(stats.Probed))
	db.metrics.FilterHits.Add(int64(stats.FilterHits))
	db.metrics.FilterSkips.Add(int64(stats.FilterSkips))
	if err != nil || ok {
		return e, TierPM, err
	}
	for _, t := range s.ssdL0 {
		if bytes.Compare(key, t.Smallest()) < 0 || bytes.Compare(key, t.Largest()) > 0 {
			continue
		}
		if e, ok, err := t.Get(key, seq); err != nil || ok {
			return e, TierSSD, err
		}
	}
	for _, run := range s.runs {
		if e, ok, err := levels.Get(run, key, seq); err != nil || ok {
			return e, TierSSD, err
		}
	}
	return kv.Entry{}, TierMiss, nil
}

// ScanResult is one visible key-value pair returned by Scan.
type ScanResult struct {
	Key   []byte
	Value []byte
}

// Scan returns up to limit live entries with start <= key < end (nil end =
// unbounded, limit 0 = unbounded). It is one ordered walk: start is routed to
// its partition, that partition is scanned with the entries still missing as
// its budget, and the walk steps to the next partition only while the result
// is short of limit and the partition begins below end. A limit-bounded scan
// therefore reads — and is charged to the cost model of — the partitions that
// answer it, never the ones to their right. Like Get, a scan that meets a
// corrupt table quarantines it and reads that partition once more at the same
// sequence; it returns all it was asked for or an error, never a short result.
func (db *DB) Scan(start, end []byte, limit int) ([]ScanResult, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	seq := db.beginRead()
	defer db.endRead(seq)
	return db.scanAt(start, end, limit, seq)
}

// scanAt is the explicit-sequence scan body shared by DB.Scan and
// Snapshot.Scan. The caller must hold a registry pin on seq: the partitions
// are read one after another, and only the pinned sequence makes the result
// one point in time.
func (db *DB) scanAt(start, end []byte, limit int, seq uint64) ([]ScanResult, error) {
	begin := time.Now()
	var out []ScanResult
	for _, p := range db.partitions[db.route(start).id:] {
		if limit > 0 && len(out) >= limit {
			break
		}
		if end != nil && p.lo != nil && bytes.Compare(p.lo, end) >= 0 {
			break
		}
		// The budget is what is still missing, not limit: a hop into the next
		// partition reserves and reads ahead for what it will return.
		res, err := db.scanPartition(p, start, end, max(limit-len(out), 0), seq, out)
		if err != nil && db.healCorruption(p, err) {
			res, err = db.scanPartition(p, start, end, max(limit-len(out), 0), seq, out)
		}
		if err != nil {
			return nil, err
		}
		out = res
	}
	db.metrics.ScanLatency.Record(time.Since(begin))
	return out, nil
}

// scanPartition appends up to budget of partition p's visible entries in
// [start, end) to out (budget 0 = unbounded). When the state's stable half has
// (or can get) a range view, the stable tables stream through its selector
// walk; while it has none, the plain merging-iterator path below serves the
// same state. A source that fails fails either path, and out comes back as it
// went in.
func (db *DB) scanPartition(p *partition, start, end []byte, budget int, seq uint64, out []ScanResult) ([]ScanResult, error) {
	// A scan cannot route around a quarantined table with Bloom precision the
	// way point reads can: a partition whose quarantined key range overlaps
	// the scan's makes whatever it would contribute untrustworthy. The guard
	// follows the walk — a partition the scan never reaches cannot shadow its
	// result — and a scan that does reach one fails whole, never short.
	if p.quarOverlaps(start, end) {
		db.metrics.UnavailableReads.Add(1)
		return out, ErrUnavailable
	}
	s := p.acquire()
	defer s.release()
	p.reads.Add(1)
	v, err := db.viewOf(s)
	if err != nil {
		return out, err
	}
	if v != nil {
		db.metrics.RangeViewHits.Add(1)
		return scanView(s, v, start, end, budget, seq, out)
	}
	db.metrics.RangeViewFallbacks.Add(1)
	its := s.sources(nil)
	if budget > 0 {
		hintEntries(its, budget+32)
	}
	kv.Seek(start, its...)
	// Visibility BEFORE dedup (retention with no boundary): filtering e.Seq >
	// seq after the dedup would discard keys whose newest version postdates
	// the snapshot — the dedup would keep the invisible newest version and the
	// filter would then drop the key instead of yielding its older visible one.
	merged := kv.NewRetainIterator(kv.NewVisibleIterator(kv.NewMergingIteratorAt(its...), seq), nil, false)
	base := len(out)
	for ; merged.Valid(); merged.Next() {
		e := merged.Entry()
		if end != nil && bytes.Compare(e.Key, end) >= 0 {
			break
		}
		if e.Kind == kv.KindDelete {
			continue
		}
		// The dedup owns freshly allocated buffers per entry, so they can be
		// handed to the caller without another copy.
		out = append(out, ScanResult{Key: e.Key, Value: e.Value})
		if budget > 0 && len(out)-base >= budget {
			break
		}
	}
	if err := merged.Err(); err != nil {
		return out[:base], err
	}
	return out, nil
}

// hintEntries caps the next readahead span of every source that reads ahead
// (SSD-backed iterators) to roughly n entries. It must precede the seek, which
// performs the first span read.
func hintEntries(its []kv.Iterator, n int) {
	for _, it := range its {
		if h, ok := it.(interface{ HintEntries(int) }); ok {
			h.HintEntries(n)
		}
	}
}
