package main

import (
	"fmt"
	"math/rand"

	"pmblade/bench/gen"
	"pmblade/internal/bloom"
	"pmblade/internal/compaction"
	"pmblade/internal/costmodel"
	"pmblade/internal/device"
	"pmblade/internal/engine"
	"pmblade/internal/kv"
	"pmblade/internal/level0"
	"pmblade/internal/levels"
	"pmblade/internal/memtable"
	"pmblade/internal/pmem"
	"pmblade/internal/pmtable"
	"pmblade/internal/rangeindex"
	"pmblade/internal/sched"
	"pmblade/internal/ssd"
	"pmblade/internal/sstable"
	"pmblade/internal/wal"
)

// standalone builds each layer on its own devices (the realistic profiles)
// from the workload's first standaloneRecords records and times calls into
// its exported functions with the workload's key stream. Every measurement
// is a span, or a batch of them, under the layer's span. Layers build on
// one another — level0 holds pmtable's table, levels holds compaction's
// output — so the first failed build ends the pass.
type standalone struct {
	r    *runner
	root int32
	ms   []metric

	n       int
	entries []kv.Entry    // the records in key order, one version each
	quarter [4][]kv.Entry // entries dealt round-robin: four sorted inputs
	order   []int32       // the load's seeded order of the records
	stream  []int32       // key indexes of the stream's Gets
	top     uint64        // a sequence above every entry

	pm       *pmem.Device
	sd       *ssd.Device
	pmSorted *pmtable.Table   // built by pmtable, the sorted table of level0
	l0       *level0.Level0   // built by level0, a source of rangeindex
	cold     *sstable.Table   // built by sstable without a cache
	run      []*sstable.Table // built by compaction, held by levels and rangeindex
}

func (r *runner) standalone() []metric {
	s := &standalone{r: r, n: min(standaloneRecords, len(r.in.Keys))}
	s.root = r.tr.begin("standalone", 0, -1)
	defer r.tr.end(s.root)

	s.entries = make([]kv.Entry, s.n)
	for i := range s.entries {
		e := kv.Entry{Key: r.in.Keys[i], Value: r.want(int32(i)), Seq: uint64(i + 1), Kind: kv.KindSet}
		s.entries[i] = e
		s.quarter[i%4] = append(s.quarter[i%4], e)
	}
	s.top = uint64(2*s.n + 1)
	for _, op := range r.in.Load {
		if int(op.Key) < s.n {
			s.order = append(s.order, op.Key)
		}
	}
	s.stream = r.streamKeys(20_000, s.n)
	s.pm = pmem.New(1<<30, pmem.OptaneProfile)
	s.sd = ssd.New(ssd.NVMeProfile)

	for _, layer := range []struct {
		name string
		fn   func(id int32) error
	}{
		{"memtable", s.memtable}, {"bloom", s.bloom}, {"kv", s.merge}, {"pmtable", s.pmtable}, {"pmem", s.pmem},
		{"level0", s.level0}, {"sstable", s.sstable}, {"ssd", s.ssd}, {"wal", s.wal}, {"compaction", s.compaction},
		{"sched", s.sched}, {"levels", s.levels}, {"rangeindex", s.rangeindex}, {"costmodel", s.costmodel},
	} {
		id := r.tr.begin(layer.name, s.root, -1)
		err := layer.fn(id)
		r.tr.end(id)
		if err != nil {
			r.fail("standalone %s: %v", layer.name, err)
			break
		}
	}
	return s.ms
}

func (s *standalone) add(name string, value float64, unit string, samples int) {
	s.ms = append(s.ms, metric{name, value, unit, samples})
}

// key is the i-th key of the stream, wrapping around.
func (s *standalone) key(i int) []byte { return s.r.in.Keys[s.stream[i%len(s.stream)]] }

// timeOnce times one call as a single span and returns its nanoseconds.
func (s *standalone) timeOnce(parent int32, name string, fn func() error) (float64, error) {
	start := s.r.tr.now()
	err := fn()
	end := s.r.tr.now()
	s.r.tr.add(name, parent, -1, start, end, 1)
	return float64(end - start), err
}

func (s *standalone) memtable(id int32) error {
	mt := memtable.New()
	s.add("memtable.add_ns", s.r.timeCalls(id, "memtable.Add", s.n, func(i int) { mt.Add(s.entries[s.order[i]]) }), "ns", s.n)
	s.add("memtable.get_ns", s.r.timeCalls(id, "memtable.Get", len(s.stream), func(i int) { mt.Get(s.key(i), s.top) }), "ns", len(s.stream))
	it := mt.NewIterator()
	it.SeekToFirst()
	s.add("memtable.iter_next_ns", s.r.timeCalls(id, "memtable.Iterator.Next", s.n-1, func(int) { it.Next() }), "ns", s.n-1)
	return nil
}

func (s *standalone) bloom(id int32) error {
	filter := bloom.New(s.r.in.Keys[:s.n], 10)
	s.add("bloom.may_contain_ns", s.r.timeCalls(id, "bloom.MayContain", len(s.stream), func(i int) { filter.MayContain(s.key(i)) }), "ns", len(s.stream))
	falsePositives := 0
	for i := 0; i < s.n; i++ {
		if filter.MayContain([]byte(fmt.Sprintf("none%012d", i))) {
			falsePositives++
		}
	}
	s.add("bloom.fp_ratio", float64(falsePositives)/float64(s.n), "ratio", s.n)
	return nil
}

// merge times the scan path's iterator stack without a range view: a 4-way
// merge, the visibility filter, and newest-version dedup.
func (s *standalone) merge(id int32) error {
	var its []kv.Iterator
	for _, q := range s.quarter {
		its = append(its, kv.NewSliceIterator(q))
	}
	it := kv.NewDedupIterator(kv.NewVisibleIterator(kv.NewMergingIterator(its...), s.top), true)
	it.SeekToFirst()
	s.add("kv.merge_next_ns", s.r.timeCalls(id, "kv.DedupIterator.Next", s.n-1, func(int) { it.Next() }), "ns", s.n-1)
	return nil
}

func (s *standalone) pmtable(id int32) error {
	var built pmtable.BuildResult
	var buildNs []float64
	for i := 0; i < 3; i++ {
		if built.Table != nil {
			built.Table.Release()
		}
		ns, err := s.timeOnce(id, "pmtable.Build", func() (err error) {
			built, err = pmtable.Build(s.pm, s.entries, pmtable.FormatPrefix, 0, device.CauseFlush)
			return err
		})
		if err != nil {
			return err
		}
		buildNs = append(buildNs, ns/float64(s.n))
	}
	s.pmSorted = built.Table
	s.add("pmtable.build_ns_per_entry", median(buildNs), "ns", len(buildNs))
	s.add("pmtable.bytes_per_entry", float64(built.EncodedBytes)/float64(s.n), "bytes", s.n)
	s.add("pmtable.get_ns", s.r.timeCalls(id, "pmtable.Get", len(s.stream), func(i int) { built.Table.Get(s.key(i), s.top) }), "ns", len(s.stream))
	return nil
}

// pmem and ssd compare wall time with charged time for bare device calls:
// whether the latency model still holds on this host.
func (s *standalone) pmem(id int32) error {
	const calls = 20_000
	busy := s.pm.Stats().BusyTime()
	wall := s.r.timeCalls(id, "pmem.ChargeAccess", calls, func(int) { s.pm.ChargeAccess() }) * calls
	s.add("pmem.spin_overshoot", wall/float64(s.pm.Stats().BusyTime()-busy), "ratio", calls)
	return nil
}

func (s *standalone) ssd(id int32) error {
	const calls = 300
	page := make([]byte, ssd.PageSize)
	pages := s.sd.Size(s.cold.File()) / ssd.PageSize
	var failed error
	busy := s.sd.Stats().BusyTime()
	wall := s.r.timeCalls(id, "ssd.ReadAt", calls, func(i int) {
		if err := s.sd.ReadAt(s.cold.File(), int64(i)%pages*ssd.PageSize, page, device.CauseClientRead); err != nil {
			failed = err
		}
	}) * calls
	s.add("ssd.spin_overshoot", wall/float64(s.sd.Stats().BusyTime()-busy), "ratio", calls)
	return failed
}

// level0 puts four newer unsorted tables, each rewriting an eighth of the
// keys, over pmtable's sorted table.
func (s *standalone) level0(id int32) error {
	var unsorted []*pmtable.Table
	for u := 0; u < 4; u++ {
		var part []kv.Entry
		for i := u; i < s.n; i += 8 {
			e := s.entries[i]
			e.Seq = uint64(s.n + i + 1)
			part = append(part, e)
		}
		res, err := pmtable.Build(s.pm, part, pmtable.FormatPrefix, 0, device.CauseFlush)
		if err != nil {
			return err
		}
		unsorted = append(unsorted, res.Table)
	}
	s.l0 = level0.New(s.pm, level0.Config{Format: pmtable.FormatPrefix})
	s.l0.ReplaceAll(unsorted, []*pmtable.Table{s.pmSorted})
	s.add("level0.get_ns", s.r.timeCalls(id, "level0.Get", len(s.stream), func(i int) { s.l0.Get(s.key(i), s.top) }), "ns", len(s.stream))
	var stats level0.CompactionStats
	ns, err := s.timeOnce(id, "level0.CompactInternal", func() (err error) {
		stats, err = s.l0.CompactInternal(false, nil)
		return err
	})
	s.add("level0.compact_internal_ns_per_entry", ns/float64(max(stats.EntriesIn, 1)), "ns", stats.EntriesIn)
	return err
}

func (s *standalone) sstable(id int32) error {
	var buildNs []float64
	for i := 0; i < 3; i++ {
		if s.cold != nil {
			s.cold.Delete()
		}
		ns, err := s.timeOnce(id, "sstable.Builder", func() (err error) {
			s.cold, err = buildSSTable(s.sd, s.entries)
			return err
		})
		if err != nil {
			return err
		}
		buildNs = append(buildNs, ns/float64(s.n))
	}
	s.add("sstable.build_ns_per_entry", median(buildNs), "ns", len(buildNs))

	// Without a cache every Get reads the device.
	var failed error
	s.add("sstable.get_miss_us", s.r.timeCalls(id, "sstable.Get miss", 400, func(i int) {
		if _, _, err := s.cold.Get(s.key(i), s.top); err != nil {
			failed = err
		}
	})/1e3, "us", 400)
	keys := make([][]byte, gen.MGetKeys)
	out, found := make([]kv.Entry, gen.MGetKeys), make([]bool, gen.MGetKeys)
	s.add("sstable.getbatch_us_per_key", s.r.timeCalls(id, "sstable.GetBatch", 100, func(i int) {
		for j := range keys {
			keys[j], found[j] = s.key(i*gen.MGetKeys+j), false
		}
		if _, err := s.cold.GetBatch(keys, s.top, out, found); err != nil {
			failed = err
		}
	})/1e3/gen.MGetKeys, "us", 100*gen.MGetKeys)

	// With a cache that holds the whole table, filled by a first scan.
	warm, err := sstable.Open(s.sd, s.cold.File(), sstable.NewBlockCache(64<<20))
	if err != nil {
		return err
	}
	it := warm.NewScanIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
	}
	s.add("sstable.get_hit_ns", s.r.timeCalls(id, "sstable.Get hit", len(s.stream), func(i int) {
		if _, _, err := warm.Get(s.key(i), s.top); err != nil {
			failed = err
		}
	}), "ns", len(s.stream))
	it.SeekToFirst()
	s.add("sstable.scan_next_ns", s.r.timeCalls(id, "sstable.Iterator.Next", s.n-1, func(int) { it.Next() }), "ns", s.n-1)
	if failed == nil {
		failed = it.Err()
	}
	return failed
}

func buildSSTable(sd *ssd.Device, entries []kv.Entry) (*sstable.Table, error) {
	b := sstable.NewBuilder(sd, device.CauseMajor)
	for _, e := range entries {
		if err := b.Add(e); err != nil {
			b.Abandon()
			return nil, err
		}
	}
	return b.Finish()
}

func (s *standalone) wal(id int32) error {
	var failed error
	log := wal.NewWriter(s.sd)
	s.add("wal.append_sync_us", s.r.timeCalls(id, "wal.AppendBatches+Sync", 400, func(i int) {
		if _, err := log.AppendBatches([][]kv.Entry{s.entries[i : i+1]}); err != nil {
			failed = err
		}
		if err := log.Sync(); err != nil {
			failed = err
		}
	})/1e3, "us", 400)
	if failed != nil {
		return failed
	}
	// A log the size of the recovery tail, replayed five times.
	tail := wal.NewWriter(s.sd)
	for lo := 0; lo+tailBatch <= min(tailPuts, s.n); lo += tailBatch {
		if _, err := tail.AppendBatches([][]kv.Entry{s.entries[lo : lo+tailBatch]}); err != nil {
			return err
		}
	}
	if err := tail.Sync(); err != nil {
		return err
	}
	var replayNs []float64
	for i := 0; i < 5; i++ {
		replayed := 0
		ns, err := s.timeOnce(id, "wal.Replay", func() (err error) {
			replayed, err = wal.Replay(s.sd, tail.File(), func(kv.Entry) error { return nil })
			return err
		})
		if err != nil {
			return err
		}
		replayNs = append(replayNs, ns/float64(max(replayed, 1)))
	}
	s.add("wal.replay_ns_per_entry", median(replayNs), "ns", len(replayNs))
	return nil
}

// compaction merges the four sorted inputs into SSD tables of 2 MiB under
// the PM-Blade scheduler, as one major-compaction subtask does.
func (s *standalone) compaction(id int32) error {
	pool := sched.NewPool(sched.ModePMBlade, 2, 8, s.sd)
	defer pool.CloseBackground()
	var sources []kv.Iterator
	for _, q := range s.quarter {
		it := kv.NewSliceIterator(q)
		it.SeekToFirst()
		sources = append(sources, it)
	}
	ns, err := s.timeOnce(id, "compaction.Run", func() (err error) {
		pool.Run([]sched.Task{func(ctx *sched.Ctx) {
			s.run, err = compaction.Run(ctx, sources, compaction.Params{
				Dev: s.sd, Cause: device.CauseMajor, DropTombstones: true, TargetTableBytes: 2 << 20,
			})
		}})
		return err
	})
	if err != nil {
		return err
	}
	if len(s.run) == 0 {
		return fmt.Errorf("compaction.Run returned no table")
	}
	var bytes int64
	for _, t := range s.run {
		bytes += t.SizeBytes()
	}
	s.add("compaction.run_mb_per_s", float64(bytes)/(1<<20)/(ns/1e9), "MB/s", 1)
	return nil
}

func (s *standalone) sched(id int32) error {
	pool := sched.NewPool(sched.ModePMBlade, 2, 8, s.sd)
	defer pool.CloseBackground()
	idle := []sched.Task{func(*sched.Ctx) {}, func(*sched.Ctx) {}, func(*sched.Ctx) {}, func(*sched.Ctx) {}}
	s.add("sched.run_overhead_us", s.r.timeCalls(id, "sched.Pool.Run", 500, func(int) { pool.Run(idle) })/1e3, "us", 500)
	return nil
}

// levels looks keys up through the sorted run of compaction's tables, with
// a cache that a first pass has filled.
func (s *standalone) levels(id int32) error {
	cache := sstable.NewBlockCache(64 << 20)
	for _, t := range s.run {
		t.AttachCache(cache)
	}
	run := levels.NewRun()
	run.Replace(nil, s.run)
	var failed error
	get := func(i int) {
		if _, _, err := run.Get(s.key(i), s.top); err != nil {
			failed = err
		}
	}
	for i := range s.stream {
		get(i)
	}
	s.add("levels.run_get_ns", s.r.timeCalls(id, "levels.Run.Get", len(s.stream), get), "ns", len(s.stream))
	return failed
}

// pmSource and runSource adapt tables to rangeindex.Source the way the
// engine does.
type pmSource struct{ t *pmtable.Table }

func (s pmSource) NewCursor() kv.PosIterator { return s.t.NewIterator().(kv.PosIterator) }
func (s pmSource) Len() int                  { return s.t.Len() }

type runSource struct{ tables []*sstable.Table }

func (s runSource) NewCursor() kv.PosIterator { return levels.NewConcatScanIterator(s.tables) }
func (s runSource) Len() int {
	n := 0
	for _, t := range s.tables {
		n += t.Len()
	}
	return n
}

// rangeindex builds a view over the engine's shape of sources: the sorted
// PM tables internal compaction left in level0, and the SSD run.
func (s *standalone) rangeindex(id int32) error {
	_, sorted := s.l0.Tables()
	srcs := []rangeindex.Source{runSource{s.run}}
	for _, t := range sorted {
		srcs = append(srcs, pmSource{t})
	}
	var view *rangeindex.View
	ns, err := s.timeOnce(id, "rangeindex.Build", func() (err error) {
		view, err = rangeindex.Build(1, srcs, 0, func() {})
		return err
	})
	if err != nil {
		return err
	}
	defer view.Unref()
	s.add("rangeindex.build_ns_per_entry", ns/float64(max(view.Len(), 1)), "ns", view.Len())
	it := view.NewIter()
	s.add("rangeindex.seek_ns", s.r.timeCalls(id, "rangeindex.Iter.SeekGE", 2_000, func(i int) { it.SeekGE(s.key(i)) }), "ns", 2_000)
	it.SeekToFirst()
	s.add("rangeindex.next_ns", s.r.timeCalls(id, "rangeindex.Iter.Next", view.Len()-1, func(int) { it.Next() }), "ns", view.Len()-1)
	return it.Err()
}

// costmodel solves Eq. 3 over 64 partitions of seeded sizes and read counts.
func (s *standalone) costmodel(id int32) error {
	rng := rand.New(rand.NewSource(1))
	parts := make([]costmodel.PartitionState, 64)
	for i := range parts {
		parts[i] = costmodel.PartitionState{ID: i, Size: 1<<20 + rng.Int63n(8<<20), Reads: rng.Int63n(100_000)}
	}
	params := engine.DefaultCostParams(256<<20, len(parts))
	s.add("costmodel.select_preserved_ns", s.r.timeCalls(id, "costmodel.SelectPreserved", 2_000, func(int) { params.SelectPreserved(parts) }), "ns", 2_000)
	return nil
}
