package engine

import (
	"slices"
	"time"

	"pmblade/internal/kv"
	"pmblade/internal/level0"
	"pmblade/internal/levels"
)

// GetResult is one key's outcome in a MultiGet batch.
type GetResult struct {
	Value []byte
	Found bool
	// Err is this key's individual failure — ErrUnavailable when its only
	// candidate source is quarantined, or the partition's read error. Keys in
	// unaffected partitions resolve normally: one bad table fails only the
	// keys that actually needed it, not the whole batch.
	Err error
}

// MultiGet resolves many keys at a single snapshot and returns results
// positionally identical to len(keys) sequential Get calls. Keys are grouped
// by partition with one routing pass; each partition acquires its read state
// once for the whole group, probes fence keys and Bloom filters before
// touching entry data, and fetches the SSD blocks the group still needs as
// one device batch: keys co-located in a block (or in adjacent blocks) share
// one read, and the reads wait at the device together, not behind each other.
// Partitions resolve in parallel with bounded fan-out through the scheduler
// pool. Per-key failures (corruption, quarantined ranges) surface in each
// GetResult's Err — mirroring the error the equivalent Get would return —
// while the top-level error is reserved for whole-batch conditions
// (ErrClosed).
func (db *DB) MultiGet(keys [][]byte) ([]GetResult, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	seq := db.beginRead()
	defer db.endRead(seq)
	return db.multiGetAt(keys, seq)
}

// multiGetAt is the explicit-sequence batch-read body shared by DB.MultiGet
// and Snapshot.MultiGet. The caller must hold a registry pin on seq; the
// quarantine-heal retry below deliberately reuses the same sequence so the
// rerun reads at the same point in time.
func (db *DB) multiGetAt(keys [][]byte, seq uint64) ([]GetResult, error) {
	start := time.Now()
	results := make([]GetResult, len(keys))
	if len(keys) == 0 {
		return results, nil
	}

	// One routing pass: partition index -> positions of its keys.
	groups := make([][]int, len(db.partitions))
	for i, key := range keys {
		pid := db.route(key).id
		groups[pid] = append(groups[pid], i)
	}
	active := make([]int, 0, len(groups)) // partitions that have keys
	for pid, idxs := range groups {
		if len(idxs) > 0 {
			active = append(active, pid)
		}
	}

	db.pool.Fan(len(active), func(g int) {
		p, idxs := db.partitions[active[g]], groups[active[g]]
		err := db.multiGetPartition(p, keys, idxs, seq, results)
		if err != nil && db.healCorruption(p, err) {
			// Self-healing: the corrupt table is quarantined; one retry against
			// the remaining sources (multiGetPartition publishes results only
			// on success, so the rerun starts from a clean slate).
			err = db.multiGetPartition(p, keys, idxs, seq, results)
		}
		if err != nil {
			// Blast radius: only the keys that actually needed this partition
			// fail; the other partitions' results stand.
			for _, i := range idxs {
				results[i] = GetResult{Err: err}
			}
		}
	})
	db.metrics.MultiGetOps.Add(1)
	db.metrics.MultiGetKeys.Add(int64(len(keys)))
	db.metrics.MultiGetLatency.Record(time.Since(start))
	return results, nil
}

// multiGetPartition resolves idxs (positions into keys) against partition p,
// writing into the shared results slice; positions are disjoint across
// partitions, so concurrent group resolution needs no locking.
func (db *DB) multiGetPartition(p *partition, keys [][]byte, idxs []int, seq uint64, results []GetResult) error {
	// Sub-batch views aligned to this partition's keys.
	subKeys := make([][]byte, len(idxs))
	subEntries := make([]kv.Entry, len(idxs))
	subFound := make([]bool, len(idxs))
	subTiers := make([]Tier, len(idxs))
	for j, i := range idxs {
		subKeys[j] = keys[i]
	}

	// One state for the whole batch; every tier below is a walk over it.
	s := p.acquire()
	defer s.release()

	// 1. Active memtable + immutables, newest first.
	for j, key := range subKeys {
		if e, ok := s.mem.Get(key, seq); ok {
			subEntries[j], subFound[j], subTiers[j] = e, true, TierMemtable
			continue
		}
		for _, m := range s.imm {
			if e, ok := m.Get(key, seq); ok {
				subEntries[j], subFound[j], subTiers[j] = e, true, TierMemtable
				break
			}
		}
	}

	// 2. PM level-0 (found keys shadow older tables).
	markNew := func(t Tier) {
		for j := range subFound {
			if subFound[j] && subTiers[j] == TierMiss {
				subTiers[j] = t
			}
		}
	}
	stats, err := level0.GetBatch(s.pmUnsorted, s.pmSorted, subKeys, seq, subEntries, subFound)
	db.metrics.L0TablesProbed.Add(int64(stats.Probed))
	db.metrics.FilterHits.Add(int64(stats.FilterHits))
	db.metrics.FilterSkips.Add(int64(stats.FilterSkips))
	if err != nil {
		return err
	}
	markNew(TierPM)

	// 3. SSD, for the keys PM did not settle: level-0 tables newest first (one
	// may shadow the next, so each is a batch of its own), then the runs. Each
	// batch locates its keys' blocks without I/O and submits the missing ones
	// to the device together; how many are served at once is the device's
	// Parallelism, shared with the other partitions of this MultiGet.
	if slices.Contains(subFound, false) {
		for _, t := range s.ssdL0 {
			coalesced, err := t.GetBatch(subKeys, seq, subEntries, subFound)
			db.metrics.MultiGetCoalescedReads.Add(int64(coalesced))
			if err != nil {
				return err
			}
		}
		for _, run := range s.runs {
			coalesced, err := levels.GetBatch(run, subKeys, seq, subEntries, subFound)
			db.metrics.MultiGetCoalescedReads.Add(int64(coalesced))
			if err != nil {
				return err
			}
		}
	}
	markNew(TierSSD)

	// Publish, on success only. Copy-out boundary: the entries' values are
	// views of memtable, PM-table and block-cache memory the state keeps
	// alive, so each returned value is copied here, once, before the deferred
	// release lets go of it.
	for j, i := range idxs {
		db.metrics.CountRead(subTiers[j])
		switch {
		case s.quarShadowed(keys[i], subFound[j], subTiers[j]):
			db.metrics.UnavailableReads.Add(1)
			results[i] = GetResult{Err: ErrUnavailable}
		case subFound[j] && subEntries[j].Kind != kv.KindDelete:
			results[i] = GetResult{Value: append([]byte(nil), subEntries[j].Value...), Found: true}
		}
	}
	p.reads.Add(int64(len(idxs)))
	return nil
}
