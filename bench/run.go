package main

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"time"

	"pmblade"
	"pmblade/bench/gen"
	"pmblade/internal/engine"
)

// runner carries one run of one workload: the generated inputs, the oracle
// of acknowledged writes, and the failure count.
type runner struct {
	w    workload
	in   *gen.Inputs
	opts pmblade.Options
	tr   *tracer // nil on the untraced run

	// oracle[k] indexes in.Values: the value of the last acknowledged write
	// of in.Keys[k].
	oracle []int32

	tally

	mkeys [gen.MGetKeys][]byte // the key slice of the MultiGet in flight
	mgets int                  // MultiGets so far, for the sampled cross-check
	scans int                  // Scans so far, for the sampled oracle check
}

// tally is what a run counts: public calls attempted and failed, with the
// first few failures for the report.
type tally struct {
	attempted, failed int64
	notes             []string
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func (r *runner) want(k int32) []byte { return r.in.Values[r.oracle[k]] }

// setup is Open → load → Flush (→ Compact) → Checkpoint, the part of a run
// setup_s times. The oracle holds the loaded values afterwards.
func (r *runner) setup() (*pmblade.DB, time.Duration, error) {
	start := time.Now()
	root := r.tr.begin("setup", 0, -1)
	defer r.tr.end(root)

	id := r.tr.begin("open", root, -1)
	db, err := pmblade.Open(r.opts)
	r.tr.end(id)
	if err != nil {
		return nil, 0, fmt.Errorf("open: %w", err)
	}
	id = r.tr.begin("load", root, -1)
	err = r.applyBatches(db, r.in.Load, loadBatch)
	r.tr.end(id)
	if err == nil {
		id = r.tr.begin("flush", root, -1)
		err = db.Flush()
		r.tr.end(id)
	}
	if err == nil && r.w.compact {
		id = r.tr.begin("compact", root, -1)
		err = db.Compact()
		r.tr.end(id)
	}
	if err == nil {
		id = r.tr.begin("checkpoint", root, -1)
		_, err = db.Engine().Checkpoint()
		r.tr.end(id)
	}
	if err != nil {
		_ = db.Close() // the set-up error is the one to report
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return db, time.Since(start), nil
}

// applyBatches writes ops as Apply batches of n and records each
// acknowledged write in the oracle.
func (r *runner) applyBatches(db *pmblade.DB, ops []gen.Op, n int) error {
	var b pmblade.Batch
	for lo := 0; lo < len(ops); lo += n {
		hi := min(lo+n, len(ops))
		b.Reset()
		for _, op := range ops[lo:hi] {
			b.Put(r.in.Keys[op.Key], r.in.Values[op.Val])
		}
		r.attempted++
		if err := db.Apply(&b); err != nil {
			r.fail("apply: %v", err)
			return err
		}
		for _, op := range ops[lo:hi] {
			r.oracle[op.Key] = op.Val
		}
	}
	return nil
}

// phase is what the timed phase measured: per kind, the latency of every
// call in call order with the index where each round starts, and per round
// its wall time net of the sampled cross-checks.
type phase struct {
	lat     [gen.NumKinds][]int64
	bounds  [gen.NumKinds][]int // rounds+1 entries
	roundNs [rounds]int64
	wallNs  int64
	snaps   [rounds + 1]counters // the counters at every round boundary
	hostCPU [rounds]float64      // traced run only: reference kernels, ms
	hostMem [rounds]float64
	// traced and plain split the traced run's phase into alternating blocks
	// of traceBlock calls, with and without a span per call: the same
	// conditions for both, so their difference is the cost of tracing.
	traced, plain blockTotals
}

// traceBlock is the length of those blocks.
const traceBlock = 64

// blockTotals sums blocks of calls: their count, their wall time net of the
// sampled cross-checks, and the time inside their spans.
type blockTotals struct{ calls, wallNs, spanNs int64 }

func (b *blockTotals) add(calls int, wallNs, spanNs int64) {
	b.calls += int64(calls)
	b.wallNs += wallNs
	b.spanNs += spanNs
}

// runPhase issues the warm-up and then the operation stream through the
// public API, one client, closed loop. Only the stream is timed. On the
// traced run every other block of traceBlock calls records a span per call,
// and every round boundary runs the host reference kernels.
func (r *runner) runPhase(db *pmblade.DB) *phase {
	ops := r.in.Ops
	per := len(ops) / rounds
	ph := &phase{}
	for k := range ph.lat {
		ph.lat[k] = make([]int64, 0, len(ops)*r.w.mix[k]/100+len(ops)/50)
	}
	base := time.Now()
	if r.tr != nil {
		base = r.tr.base
	}
	id := r.tr.begin("warmup", 0, -1)
	for _, op := range r.in.Warm {
		r.do(db, op, base)
	}
	r.tr.end(id)

	root := r.tr.begin("phase", 0, -1)
	phaseStart := time.Now()
	for round := 0; round < rounds; round++ {
		ph.snaps[round] = readCounters(db)
		if r.tr != nil {
			r.tr.counters = append(r.tr.counters, roundCounters{Round: round, AtNs: r.tr.now(), Counters: ph.snaps[round]})
			ph.hostCPU[round], ph.hostMem[round] = hostKernels()
		}
		roundSpan := r.tr.begin("round", root, round)
		for k := range ph.bounds {
			ph.bounds[k] = append(ph.bounds[k], len(ph.lat[k]))
		}
		var checkNs int64
		roundStart := time.Now()
		for lo := round * per; lo < (round+1)*per; lo += traceBlock {
			block := ops[lo:min(lo+traceBlock, (round+1)*per)]
			traced := r.tr != nil && lo/traceBlock%2 == 1
			var blockCheck, spanNs int64
			blockStart := int64(time.Since(base))
			for _, op := range block {
				t0, t1, check := r.do(db, op, base)
				ph.lat[op.Kind] = append(ph.lat[op.Kind], t1-t0)
				blockCheck += check
				if traced {
					r.tr.add(op.Kind.String(), roundSpan, round, t0, t1, 1)
					spanNs += t1 - t0
				}
			}
			blockNs := int64(time.Since(base)) - blockStart - blockCheck
			checkNs += blockCheck
			if traced {
				ph.traced.add(len(block), blockNs, spanNs)
			} else {
				ph.plain.add(len(block), blockNs, 0)
			}
		}
		ph.roundNs[round] = int64(time.Since(roundStart)) - checkNs
		r.tr.end(roundSpan)
	}
	ph.wallNs = int64(time.Since(phaseStart))
	for k := range ph.bounds {
		ph.bounds[k] = append(ph.bounds[k], len(ph.lat[k]))
	}
	ph.snaps[rounds] = readCounters(db)
	if r.tr != nil {
		r.tr.counters = append(r.tr.counters, roundCounters{Round: rounds, AtNs: r.tr.now(), Counters: ph.snaps[rounds]})
	}
	r.tr.end(root)
	return ph
}

// do issues one operation and checks its result against the oracle: every
// value Get and MultiGet read, every 64th Scan entry by entry, and every
// 64th MultiGet also against 16 single Gets. t0 and t1 bracket the public
// call alone, as offsets from base; check is the time a sampled check took,
// which the round's wall time leaves out.
func (r *runner) do(db *pmblade.DB, op gen.Op, base time.Time) (t0, t1, check int64) {
	r.attempted++
	keys := r.in.Keys
	switch op.Kind {
	case gen.Get:
		key := keys[op.Key]
		t0 = int64(time.Since(base))
		v, ok, err := db.Get(key)
		t1 = int64(time.Since(base))
		if err != nil || !ok || !bytes.Equal(v, r.want(op.Key)) {
			r.fail("get %s: ok=%v err=%v, value differs from the oracle", key, ok, err)
		}
	case gen.MGet:
		idx := r.in.MGets[int(op.Key)*gen.MGetKeys:][:gen.MGetKeys]
		for i, k := range idx {
			r.mkeys[i] = keys[k]
		}
		t0 = int64(time.Since(base))
		res, err := db.MultiGet(r.mkeys[:])
		t1 = int64(time.Since(base))
		r.checkMGet(idx, res, err)
		if r.mgets++; r.mgets%64 == 0 {
			r.crossCheckMGet(db, r.mkeys[:], res)
			check = int64(time.Since(base)) - t1
		}
	case gen.Scan:
		t0 = int64(time.Since(base))
		res, err := db.Scan(keys[op.Key], nil, gen.ScanLimit)
		t1 = int64(time.Since(base))
		r.scans++
		sampled := r.scans%64 == 0
		r.checkScan(op.Key, res, err, sampled)
		if sampled {
			check = int64(time.Since(base)) - t1
		}
	case gen.Put:
		key, val := keys[op.Key], r.in.Values[op.Val]
		t0 = int64(time.Since(base))
		err := db.Put(key, val)
		t1 = int64(time.Since(base))
		if err != nil {
			r.fail("put %s: %v", key, err)
		} else {
			r.oracle[op.Key] = op.Val
		}
	}
	return t0, t1, check
}

func (r *runner) checkMGet(idx []int32, res []engine.GetResult, err error) {
	if err != nil || len(res) != len(idx) {
		r.fail("mget: %d results for %d keys, err=%v", len(res), len(idx), err)
		return
	}
	for i, k := range idx {
		if res[i].Err != nil || !res[i].Found || !bytes.Equal(res[i].Value, r.want(k)) {
			r.fail("mget %s: found=%v err=%v, value differs from the oracle", r.in.Keys[k], res[i].Found, res[i].Err)
			return
		}
	}
}

// crossCheckMGet asserts the MultiGet contract: results positionally equal
// to single Gets.
func (r *runner) crossCheckMGet(db *pmblade.DB, keys [][]byte, res []engine.GetResult) {
	if len(res) != len(keys) {
		return // already counted by checkMGet
	}
	for i, k := range keys {
		v, ok, err := db.Get(k)
		if err != nil || ok != res[i].Found || !bytes.Equal(v, res[i].Value) {
			r.fail("mget %s differs from get: found %v/%v err=%v", k, res[i].Found, ok, err)
			return
		}
	}
}

// checkScan compares a scan from key index `from` with the oracle: its
// length always, and entry by entry when entries is set. Every key is live,
// so the expected result is the next ScanLimit keys with the oracle's values.
func (r *runner) checkScan(from int32, res []pmblade.KV, err error, entries bool) {
	want := min(gen.ScanLimit, len(r.in.Keys)-int(from))
	if err != nil || len(res) != want {
		r.fail("scan from %s: %d entries, want %d, err=%v", r.in.Keys[from], len(res), want, err)
		return
	}
	for i := 0; entries && i < len(res); i++ {
		k := from + int32(i)
		if !bytes.Equal(res[i].Key, r.in.Keys[k]) || !bytes.Equal(res[i].Value, r.want(k)) {
			r.fail("scan from %s: entry %d is %s, want %s with the oracle's value", r.in.Keys[from], i, res[i].Key, r.in.Keys[k])
			return
		}
	}
}

// recoverAndVerify writes the recovery tail, closes the database, cuts the
// power (every unsynced byte is dropped), and recovers recoverRepeats times,
// each on a fresh copy of the crash image. The last recovered database must
// hold exactly what the oracle holds. It returns the recovery times.
//
// The database is closed before the images are taken because the two devices
// cannot be copied in one instant: while flushes and compactions of the tail
// still ran, a manifest installed between the two copies named PM tables the
// PM image did not hold (or no longer held), and recovery failed. Close
// waits the background work out and neither flushes the memtables nor
// checkpoints, so recovery still replays the whole tail from the log.
//
// A device image is as large as everything the run ever wrote to PM, so at
// most the pristine image and one copy are alive at a time: the memory of
// each repeat goes back to the system before the next copy is made.
func (r *runner) recoverAndVerify(db *pmblade.DB) ([]float64, error) {
	if err := r.applyBatches(db, r.in.Tail, tailBatch); err != nil {
		return nil, fmt.Errorf("tail: %w", err)
	}
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	pmImage := db.Engine().PMDevice().CrashImage(nil)
	ssdImage := db.Engine().SSDDevice().CrashImage(nil)
	var times []float64
	for i := 0; i < recoverRepeats; i++ {
		debug.FreeOSMemory()
		pm, sd := pmImage.CrashImage(nil), ssdImage.CrashImage(nil)
		id := r.tr.begin("recover", 0, -1)
		start := time.Now()
		rec, err := engine.RecoverCurrent(r.opts.EngineConfig(), pm, sd)
		times = append(times, time.Since(start).Seconds())
		r.tr.end(id)
		r.attempted++
		if err != nil {
			r.fail("recover: %v", err)
			return nil, fmt.Errorf("recover: %w", err)
		}
		if i == recoverRepeats-1 {
			r.verifyAll(rec)
		}
		if err := rec.Close(); err != nil {
			return nil, fmt.Errorf("close recovered: %w", err)
		}
	}
	return times, nil
}

// verifyAll scans the whole recovered store, verifyChunk entries at a time,
// and compares it with the oracle: a missing, extra or stale key is one
// failed operation each.
func (r *runner) verifyAll(db *engine.DB) {
	id := r.tr.begin("verify", 0, -1)
	defer r.tr.end(id)
	r.attempted += int64(len(r.in.Keys))
	var from []byte // nil, then the successor of the last key seen
	seen := 0
	for {
		res, err := db.Scan(from, nil, verifyChunk)
		if err != nil {
			r.fail("verify scan: %v", err)
			return
		}
		for _, e := range res {
			if seen < len(r.in.Keys) && (!bytes.Equal(e.Key, r.in.Keys[seen]) || !bytes.Equal(e.Value, r.want(int32(seen)))) {
				r.fail("after recovery %s: acknowledged write lost or stale", r.in.Keys[seen])
			}
			seen++
		}
		if len(res) < verifyChunk {
			break
		}
		from = append(append(from[:0], res[len(res)-1].Key...), 0)
	}
	if seen != len(r.in.Keys) {
		r.fail("after recovery the store holds %d keys, the oracle %d", seen, len(r.in.Keys))
	}
}
