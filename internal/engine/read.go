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
	db.metrics.ReadLatency.Record(time.Since(start))
	db.metrics.CountRead(tier)
	p.reads.Add(1)
	if !ok || e.Kind == kv.KindDelete {
		return nil, false, nil
	}
	return e.Value, true, nil
}

// get resolves key at a snapshot in p's current state, reporting the serving
// tier. It returns tombstones to the caller (Kind), and ErrUnavailable when a
// corpse of the same state may shadow the outcome. Copy-out boundary: every
// tier's lookup returns a view — of a memtable node, a PM-table image, a
// cached block — so the value is copied here, once, before the state — and
// with it the tables' references — is released.
func (db *DB) get(p *partition, key []byte, seq uint64) (kv.Entry, bool, Tier, error) {
	s := p.acquire()
	defer s.release()
	e, tier, err := db.lookup(s, key, seq)
	if err == nil && s.quarShadowed(key, tier != TierMiss, tier) {
		db.metrics.UnavailableReads.Add(1)
		err = ErrUnavailable
	}
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
	for _, p := range db.span(start, end) {
		if limit > 0 && len(out) >= limit {
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

// scanPartition drains a cursor over partition p into out: up to budget of p's
// visible entries in [start, end) (budget 0 = unbounded), copied into an arena
// before the cursor lets go of the state. A read that fails — a scan that
// reaches a quarantined range fails whole, never short — leaves out as it went
// in.
func (db *DB) scanPartition(p *partition, start, end []byte, budget int, seq uint64, out []ScanResult) ([]ScanResult, error) {
	var c cursor
	c.open(db, p, start, end, seq, budget)
	defer c.close()
	base := len(out)
	var arena scanArena
	if budget > 0 && budget <= 4096 {
		// Right-size the result copies: a view knows its sources' average entry
		// footprint, so a bounded scan can fill one exact arena chunk and one
		// exact result slice instead of growing both geometrically.
		if c.avgEntry > 0 {
			arena.reserve(budget*c.avgEntry + 512)
		}
		if cap(out)-base < budget {
			grown := make([]ScanResult, base, base+budget)
			copy(grown, out)
			out = grown
		}
	}
	for ; c.Valid(); c.Next() {
		e := c.Entry()
		out = append(out, ScanResult{Key: arena.copy(e.Key), Value: arena.copy(e.Value)})
		if budget > 0 && len(out)-base >= budget {
			break
		}
	}
	if err := c.Err(); err != nil {
		return out[:base], err
	}
	return out, nil
}
