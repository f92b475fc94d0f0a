package engine

import (
	"fmt"
	"sync"

	"pmblade/internal/fault"
	"pmblade/internal/kv"
)

// commitReq is one caller's place in the commit queue (DESIGN.md §5.2): a
// batch to commit or, alone set, a turn to itself. The leader of the turn
// that serves it writes done and err under commitMu.
type commitReq struct {
	entries []kv.Entry
	alone   bool
	rotated []*partition // leader only: memtables its turn retired, partition order

	done bool
	err  error
	wake sync.Cond // on commitMu
}

// walBatchBytes caps the payload one turn coalesces into one WAL write+fence.
const walBatchBytes = 1 << 20

// entriesBytes estimates the WAL payload of a batch.
func entriesBytes(entries []kv.Entry) int64 {
	var n int64
	for _, e := range entries {
		n += int64(len(e.Key) + len(e.Value) + 16)
	}
	return n
}

// turn runs fn in a turn of its own (FlushAll's rotation, Checkpoint's log
// switch, Close): every write queued before it is committed, inserted and
// visible, none queued after it has begun, and no memtable rotates meanwhile.
func (db *DB) turn(fn func()) {
	group := db.joinTurn(&commitReq{alone: true}) // alone is never served by another leader
	fn()
	db.endTurn(group, nil)
}

// joinTurn queues r and waits until a leader has served it (nil) or it heads
// the queue, when it returns the group r now leads: r and, unless r runs
// alone, the writes directly behind it up to walBatchBytes — so concurrent
// writers share one WAL sync and a lone writer pays no hand-off. The group
// stays at the head of the queue until endTurn, which makes arrivals wait:
// turns run one at a time, in queue order.
func (db *DB) joinTurn(r *commitReq) []*commitReq {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	r.wake.L = &db.commitMu
	db.commitQ = append(db.commitQ, r)
	for !r.done && db.commitQ[0] != r {
		r.wake.Wait()
	}
	if r.done {
		return nil
	}
	q, n := db.commitQ, 1
	if !r.alone {
		for size := entriesBytes(r.entries); n < len(q) && !q[n].alone && size < walBatchBytes; n++ {
			size += entriesBytes(q[n].entries)
		}
	}
	return q[:n:n]
}

// endTurn acks every member of the group with the turn's outcome, takes the
// group off the queue and wakes the request that now heads it.
func (db *DB) endTurn(group []*commitReq, err error) {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	for _, r := range group {
		// Acking a writer publishes its batch as durable: the writer may
		// acknowledge its client, which must never happen with log bytes
		// still unfenced in the PM tail or unsynced in the file.
		// persistorder checks every path to this statement.
		//pmblade:publish pm ssd
		r.err = err
		r.done = true
		r.wake.Signal()
	}
	rest := copy(db.commitQ, db.commitQ[len(group):])
	clear(db.commitQ[rest:])
	db.commitQ = db.commitQ[:rest]
	if rest > 0 {
		db.commitQ[0].wake.Signal()
	}
}

// commitGroup is a turn's work for a group of writes, in the order that makes
// log, memtables and read watermark agree by construction: the group takes
// one contiguous ascending sequence block, goes to the WAL as one write and
// one fence (Section IV-D's group commit; each batch keeps its own atomic
// record), is inserted in sequence order, becomes visible all at once, and
// only then may a memtable it filled rotate — no other turn runs meanwhile,
// so a newer memtable never receives an older sequence. A group that fails is
// not inserted, but its block stays burned (its records may be in the log)
// and the watermark still moves past it.
func (db *DB) commitGroup(group []*commitReq) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.loadBgErr(); err != nil {
		return err
	}
	var buf [8][]kv.Entry // the usual group sizes stay off the heap
	batches := buf[:0]
	first := db.seq.Load()
	seq := first
	for _, r := range group {
		for i := range r.entries {
			seq++
			r.entries[i].Seq = seq
		}
		batches = append(batches, r.entries)
	}
	db.seq.Store(seq)
	err := db.logGroup(batches, int64(seq-first))
	if err == nil {
		for _, b := range batches {
			for _, e := range b {
				p := db.route(e.Key)
				db.noteWrite(p, e)
				p.state.Load().mem.Add(e)
			}
		}
	}
	db.visible.Store(seq)
	if err != nil {
		return err
	}
	for _, p := range db.partitions {
		if p.rotate(db.cfg.MemtableBytes) {
			group[0].rotated = append(group[0].rotated, p)
		}
	}
	return nil
}

// logGroup writes batches to the WAL, if there is one, as one write and one
// fence — a PM write into the log tail when the group fits there, an SSD
// append and sync otherwise. Transient device faults are retried with bounded
// backoff; anything else degrades the engine (logFailed).
func (db *DB) logGroup(batches [][]kv.Entry, entries int64) error {
	if db.wal == nil {
		return nil
	}
	db.walMu.Lock()
	err := db.retryDurable(func() error {
		_, e := db.wal.AppendBatches(batches)
		return e
	})
	if err == nil {
		err = db.retryDurable(func() error { return db.wal.Sync() })
	}
	db.walMu.Unlock()
	db.logFailed(err)
	db.metrics.WALCommitCount.Add(1)
	db.metrics.WALCommitBatches.Add(int64(len(batches)))
	db.metrics.WALCommitEntries.Add(entries)
	return err
}

// logFailed handles a log write that failed for good. A transient failure
// that ran out of retries applied nothing, and only its own turn fails.
// Anything else — torn append, permanent failure, power cut — must NOT be
// retried: re-appending after a torn record would bury it behind garbage the
// replay scan cannot cross, silently orphaning every later record. Instead
// the engine degrades: the sticky error fails every later turn while reads
// stay up.
func (db *DB) logFailed(err error) {
	if err != nil && !fault.IsTransient(err) {
		db.setBgErr(fmt.Errorf("engine: WAL degraded, writes disabled: %w", err))
	}
}
