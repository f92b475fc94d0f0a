package engine

import (
	"fmt"

	"pmblade/internal/fault"
	"pmblade/internal/kv"
)

// commitReq is one writer's contribution to a group commit. The committer
// replies exactly once on err.
type commitReq struct {
	entries []kv.Entry
	err     chan error
}

// commit assigns sequence numbers to entries and makes them durable through
// the group committer (Section IV-D's pipeline, stage 1-2: enqueue, then one
// coalesced WAL append+sync for every writer waiting at that moment). With
// the WAL disabled it only assigns sequences.
//
// Sequences are allocated as one contiguous block per batch and returned as
// [first, last]: the caller MUST call db.publish(first, last) after its
// memtable inserts complete (or after a commit error), which advances the
// visibility watermark in commit order. Allocated-but-unpublished sequences
// are invisible to readers, so a concurrent reader can never observe part of
// a batch.
func (db *DB) commit(entries []kv.Entry) (first, last uint64, err error) {
	n := uint64(len(entries))
	last = db.seq.Add(n)
	first = last - n + 1
	for i := range entries {
		entries[i].Seq = first + uint64(i)
	}
	if db.wal == nil {
		return first, last, nil
	}
	req := &commitReq{entries: entries, err: make(chan error, 1)}
	db.commitC <- req
	return first, last, <-req.err
}

// entriesBytes estimates the WAL payload of a batch.
func entriesBytes(entries []kv.Entry) int64 {
	var n int64
	for _, e := range entries {
		n += int64(len(e.Key) + len(e.Value) + 16)
	}
	return n
}

// walBatchBytes caps how many payload bytes the group committer coalesces
// into one WAL append+sync.
const walBatchBytes = 1 << 20

// committer is the group-commit loop: take the first waiting request,
// opportunistically coalesce everything else already queued (bounded by
// walBatchBytes), write all batches in a single device append, sync once,
// and fan the result back out. Concurrent writers therefore share one WAL sync instead of paying one
// each — the group-commit amortization the write path is built around.
func (db *DB) committer() {
	defer close(db.commitDone)
	for {
		first, ok := <-db.commitC
		if !ok {
			return
		}
		reqs := []*commitReq{first}
		batches := [][]kv.Entry{first.entries}
		size := entriesBytes(first.entries)
	gather:
		for size < walBatchBytes {
			select {
			case r, chOpen := <-db.commitC:
				if !chOpen {
					break gather
				}
				reqs = append(reqs, r)
				batches = append(batches, r.entries)
				size += entriesBytes(r.entries)
			default:
				break gather
			}
		}
		db.walMu.Lock()
		// Transient device faults are retried with bounded backoff. Anything
		// else — torn append, permanent failure, power cut — must NOT be
		// retried: re-appending after a torn record would bury it behind
		// garbage the replay scan cannot cross, silently orphaning every
		// later record. Instead the engine degrades: this group fails, and
		// the sticky error fails all future writes while reads stay up.
		err := db.retryDurable(func() error {
			_, e := db.wal.AppendBatches(batches)
			return e
		})
		if err == nil {
			err = db.retryDurable(func() error { return db.wal.Sync() })
		}
		db.walMu.Unlock()
		if err != nil && !fault.IsTransient(err) {
			db.setBgErr(fmt.Errorf("engine: WAL degraded, writes disabled: %w", err))
		}
		db.metrics.WALCommitCount.Add(1)
		db.metrics.WALCommitBatches.Add(int64(len(batches)))
		var n int64
		for _, b := range batches {
			n += int64(len(b))
		}
		db.metrics.WALCommitEntries.Add(n)
		// Acking a writer publishes its batch as durable: the writer may
		// acknowledge its client, which must never happen with WAL bytes
		// still unsynced. persistorder checks every path to this statement.
		for _, r := range reqs {
			//pmblade:publish ssd
			r.err <- err
		}
	}
}
