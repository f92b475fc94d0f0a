// Package compaction implements major compaction (level-0 → SSD) as the
// three-stage process of Section V: S1 reads input chunks, S2 merge-sorts
// and deduplicates, S3 writes output blocks. The stages are expressed
// through sched.Ctx, so one implementation exhibits all three behaviours the
// paper studies: thread scheduling (S3 blocks and fragments S2), basic
// coroutines (S3 yields the CPU slot), and PM-Blade's flush coroutine
// (S3 is asynchronous and admission-controlled, so S2 is never cut).
//
// RunRanges divides one logical compaction into key-range subtasks so the
// scheduler can use multiple workers (Section V-C's compaction task
// manager).
//
//pmblade:deterministic package
package compaction

import (
	"bytes"
	"sync"

	"pmblade/internal/device"
	"pmblade/internal/kv"
	"pmblade/internal/sched"
	"pmblade/internal/ssd"
	"pmblade/internal/sstable"
)

// chunkSize is the number of entries S1 pulls from a source per read stage.
const chunkSize = 256

// chunkedSource adapts a kv.Iterator into buffered chunks so the merge (S2)
// never performs device I/O while holding a CPU slot: refills happen in an
// S1 stage via ctx.Read.
type chunkedSource struct {
	it        kv.Iterator
	buf       []kv.Entry
	pos       int
	exhausted bool
	hi        []byte // exclusive upper bound; nil = unbounded
}

// refill pulls the next chunk from the iterator and reports the error of an
// iterator that failed: the chunk — and with it the subtask's input — is then
// short, and nothing merged from it may be installed.
func (s *chunkedSource) refill() error {
	s.buf = s.buf[:0]
	s.pos = 0
	for len(s.buf) < chunkSize && s.it.Valid() {
		e := s.it.Entry()
		if s.hi != nil && bytes.Compare(e.Key, s.hi) >= 0 {
			s.exhausted = true
			return nil
		}
		// Copy out: source buffers are reused on Next.
		s.buf = append(s.buf, e.Clone())
		s.it.Next()
	}
	if len(s.buf) == 0 {
		s.exhausted = true
	}
	return s.it.Err()
}

func (s *chunkedSource) empty() bool { return s.pos >= len(s.buf) }

func (s *chunkedSource) head() kv.Entry { return s.buf[s.pos] }

// stagedSink is the paper's compaction write buffer: output blocks from the
// SSTable builder accumulate in a buffer of WriteBufBytes; when it fills, an
// S3 stage writes the whole buffer to the device in one request. Under
// ModePMBlade the S3 runs asynchronously on the flush coroutine; under the
// other modes the caller's compute loop breaks to perform it synchronously.
type stagedSink struct {
	mu      sync.Mutex
	buf     []byte
	bufSize int
	ctx     *sched.Ctx

	dev   *ssd.Device
	file  ssd.FileID
	cause device.Cause
	err   error
}

// Bind implements sstable.WriteSink.
func (s *stagedSink) Bind(dev *ssd.Device, file sstable.FileAlias, cause device.Cause) {
	s.dev, s.file, s.cause = dev, file, cause
}

// Append implements sstable.WriteSink.
func (s *stagedSink) Append(p []byte) {
	s.mu.Lock()
	s.buf = append(s.buf, p...)
	s.mu.Unlock()
}

// full reports whether the write buffer reached its capacity — the trigger
// for an S3 stage.
func (s *stagedSink) full() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf) >= s.bufSize
}

// drain issues the buffered bytes as one S3 write through the scheduler
// (asynchronous under ModePMBlade). Returns whether anything was written.
func (s *stagedSink) drain() bool {
	s.mu.Lock()
	if len(s.buf) == 0 {
		s.mu.Unlock()
		return false
	}
	chunk := s.buf
	s.buf = nil
	s.mu.Unlock()
	s.ctx.Write(func() {
		if _, err := s.dev.Append(s.file, chunk, s.cause); err != nil {
			s.mu.Lock()
			if s.err == nil {
				s.err = err
			}
			s.mu.Unlock()
		}
	})
	return true
}

// Barrier implements sstable.WriteSink: flush the remainder and wait for
// async completions.
func (s *stagedSink) Barrier() error {
	s.drain()
	s.ctx.Drain()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Params configures one compaction subtask.
type Params struct {
	// Dev is the output SSD device.
	Dev *ssd.Device
	// Cause attributes the output bytes (major or leveled).
	Cause device.Cause
	// DropTombstones removes deletions and the versions they shadow (legal
	// only when no older level can contain the keys).
	DropTombstones bool
	// Boundaries are the snapshot retention boundaries (ascending), normally
	// DB.retentionBounds(): versions an open snapshot can still read survive
	// the compaction. Empty or watermark-only degenerates to plain dedup.
	Boundaries []uint64
	// TargetTableBytes splits the output into tables of roughly this size;
	// 0 means a single table.
	TargetTableBytes int64
	// Hi is the exclusive upper bound of this subtask's key range (nil for
	// unbounded); sources must already be positioned at the lower bound.
	Hi []byte
	// BreakOnWrite makes S2 stop as soon as the write buffer fills — the
	// synchronous-S3 behaviour of the thread and basic-coroutine modes. The
	// PM-Blade flush coroutine sets it false so S2 runs unfragmented.
	BreakOnWrite bool
	// WriteBufBytes is the S3 write-buffer capacity; output blocks coalesce
	// into device writes of roughly this size (default 256 KiB).
	WriteBufBytes int
	// Compress enables LZ block compression on the output tables (the
	// RocksDB default; part of S2's CPU work).
	Compress bool
}

// Run executes one compaction subtask over sources (each positioned at the
// subtask's lower bound) and returns the output tables in key order.
func Run(ctx *sched.Ctx, sources []kv.Iterator, p Params) ([]*sstable.Table, error) {
	srcs := make([]*chunkedSource, len(sources))
	for i, it := range sources {
		srcs[i] = &chunkedSource{it: it, hi: p.Hi}
	}

	bufSize := p.WriteBufBytes
	if bufSize <= 0 {
		bufSize = 256 << 10
	}
	sink := &stagedSink{ctx: ctx, bufSize: bufSize}
	var out []*sstable.Table
	var builder *sstable.Builder
	var builderBytes int64
	var runErr error // the first failed source read (S1) or builder write (S2)

	newBuilder := func() {
		builder = sstable.NewBuilderWithSink(p.Dev, p.Cause, sink)
		if p.Compress {
			builder.EnableCompression()
		}
		builderBytes = 0
	}
	// fail abandons the subtask: the table being built and the tables already
	// sealed by this subtask were never handed to the caller and nothing
	// references their files, so they must be deleted here or they would sit
	// on the device forever.
	fail := func(err error) ([]*sstable.Table, error) {
		if builder != nil {
			builder.Abandon()
		}
		for _, t := range out {
			t.Delete()
		}
		return nil, err
	}
	finishBuilder := func() error {
		if builder == nil {
			return nil
		}
		// Finish publishes only on its abandon path — deleting its own
		// not-yet-synced file — which the summary cannot tell apart from a
		// predecessor retirement:
		//pmblade:allow persistorder Finish's Delete discards its own abandoned file, not a predecessor
		t, err := builder.Finish() // calls Barrier: drains + waits
		builder = nil
		if err != nil {
			return err
		}
		out = append(out, t)
		return nil
	}

	// Snapshot-aware retention state spans compute bursts: the Retainer keeps
	// the newest version of each key plus every older version an open
	// snapshot can still read; with no snapshots it degenerates to the old
	// newest-version-only dedup.
	ret := kv.NewRetainer(p.Boundaries, p.DropTombstones)
	// splitPending defers a size-triggered table split to the next user-key
	// boundary: a key's retained versions must never straddle an output
	// table — non-overlapping-run probes open exactly one table per key.
	splitPending := false

	// prefetcher is implemented by sources with device readahead (SSTables);
	// its device read is the true S1, while decoding the fetched bytes is
	// part of S2 ("after using PM as level-0, there are more memory
	// operations, which makes S2 last longer" — Section V-B).
	type prefetcher interface{ Prefetch() }

	for {
		// S1: perform the device reads for every source needing a refill.
		needRefill := false
		for _, s := range srcs {
			if s.empty() && !s.exhausted {
				needRefill = true
				if p, ok := s.it.(prefetcher); ok {
					ctx.Read(p.Prefetch)
				}
			}
		}
		if needRefill {
			// Decode the fetched bytes into entry buffers: compute work.
			ctx.Compute(func() {
				for _, s := range srcs {
					if s.empty() && !s.exhausted && runErr == nil {
						runErr = s.refill()
					}
				}
			})
			if runErr != nil {
				return fail(runErr)
			}
		}
		live := 0
		for _, s := range srcs {
			if !s.empty() {
				live++
			}
		}
		if live == 0 {
			break
		}

		// S2: merge entries until a source drains, a block write is pending
		// (sync modes), or the output table reaches its target size.
		needSplit := false
		ctx.Compute(func() {
			for {
				// Pick the minimal head among non-empty sources; earlier
				// sources win ties (they are newer by construction).
				best := -1
				for i, s := range srcs {
					if s.empty() {
						if !s.exhausted {
							return // S1 needed
						}
						continue
					}
					if best == -1 || kv.Compare(s.head(), srcs[best].head()) < 0 {
						best = i
					}
				}
				if best == -1 {
					return // all exhausted
				}
				e := srcs[best].head()
				if splitPending && ret.StartsNewKey(e.Key) {
					// Deferred split lands on a key boundary; e stays queued
					// and is reprocessed after the builder rolls over.
					needSplit = true
					return
				}
				srcs[best].pos++

				for _, oe := range ret.Next(e) {
					if builder == nil {
						newBuilder()
					}
					if err := builder.Add(oe); err != nil {
						runErr = err
						return
					}
					builderBytes += int64(oe.Size())
				}
				if p.TargetTableBytes > 0 && builderBytes >= p.TargetTableBytes {
					splitPending = true
				}
				if p.BreakOnWrite && sink.full() {
					return // S3 interrupts S2 (thread / basic coroutine)
				}
			}
		})
		if runErr != nil {
			return fail(runErr)
		}
		// S3: flush the write buffer when it reached capacity.
		if sink.full() {
			sink.drain()
		}
		if needSplit {
			if err := finishBuilder(); err != nil {
				return fail(err)
			}
			splitPending = false
		}
	}
	if err := finishBuilder(); err != nil {
		return fail(err)
	}
	ctx.Drain()
	return out, nil
}

// RunRanges is the compaction task manager of Section V-C: it cuts one
// logical compaction into at most n contiguous key ranges at the boundary
// keys of its input tables, runs one subtask per range on pool, and returns
// the subtasks' output tables in key order. run executes the subtask for
// [lo, hi) — a nil bound is open — normally Run over fresh sources seeked to
// lo with Params.Hi = hi. If a subtask fails, the first error in range order
// is returned and the tables its siblings finished are deleted: nothing
// references a compaction output before the caller installs it, so leaving
// them would strand their files on the device.
func RunRanges(pool *sched.Pool, bounds [][]byte, n int, run func(ctx *sched.Ctx, lo, hi []byte) ([]*sstable.Table, error)) ([]*sstable.Table, error) {
	his := append(SplitRange(bounds, n), nil) // range i ends at his[i]; the last is open
	results := make([][]*sstable.Table, len(his))
	errs := make([]error, len(his))
	tasks := make([]sched.Task, len(his))
	var lo []byte
	for i, hi := range his {
		start := lo
		tasks[i] = func(ctx *sched.Ctx) { results[i], errs[i] = run(ctx, start, hi) }
		lo = hi
	}
	pool.Run(tasks)
	for _, err := range errs {
		if err == nil {
			continue
		}
		for _, ts := range results {
			for _, t := range ts {
				t.Delete()
			}
		}
		return nil, err
	}
	var out []*sstable.Table
	for _, ts := range results {
		out = append(out, ts...)
	}
	return out, nil
}

// SplitRange divides the compaction keyspace into at most n contiguous
// subranges using the boundary keys of the input tables (smallest keys work
// well because outputs are non-overlapping). It returns n-1 split keys;
// subtask i covers [split[i-1], split[i]).
func SplitRange(boundaries [][]byte, n int) [][]byte {
	if n <= 1 || len(boundaries) == 0 {
		return nil
	}
	// Sort + dedup boundaries.
	sorted := make([][]byte, 0, len(boundaries))
	sorted = append(sorted, boundaries...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && bytes.Compare(sorted[j], sorted[j-1]) < 0; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	uniq := sorted[:0]
	for i, b := range sorted {
		if i == 0 || !bytes.Equal(b, sorted[i-1]) {
			uniq = append(uniq, b)
		}
	}
	if len(uniq) < 2 {
		return nil
	}
	splits := n - 1
	if splits > len(uniq)-1 {
		splits = len(uniq) - 1
	}
	var out [][]byte
	for i := 1; i <= splits; i++ {
		idx := i * len(uniq) / (splits + 1)
		if idx == 0 {
			idx = 1
		}
		out = append(out, uniq[idx])
	}
	// Dedup the chosen splits.
	final := out[:0]
	for i, s := range out {
		if i == 0 || !bytes.Equal(s, out[i-1]) {
			final = append(final, s)
		}
	}
	return final
}
