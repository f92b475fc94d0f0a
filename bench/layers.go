package main

import (
	"fmt"
	"runtime"
	"runtime/debug"

	"pmblade"
	"pmblade/bench/gen"
	"pmblade/internal/device"
	"pmblade/internal/pmem"
)

const (
	// standaloneRecords is how many of the workload's records each layer is
	// built from when it is timed on its own.
	standaloneRecords = 50_000
	// replayOps is the length of the replay on zero-latency devices.
	replayOps = 25_000
	// probeGets and probeScans are the calls of the quiescent probe.
	probeGets, probeScans = 2_000, 400
	// batches is the number of spans one standalone measurement is cut
	// into; its value is the median over them.
	batches = 10
)

// The per-layer metrics of the traced run come from four sources, all
// outside the engine: counter differences over the phase and a quiescent
// probe of the still-open database (openMetrics), then, once that database
// is closed and its memory released, each layer built standalone from the
// workload's records and key stream and a replay of the stream on
// zero-latency devices (closedMetrics).
func (r *runner) openMetrics(db *pmblade.DB, ph *phase) []metric {
	return append(counterMetrics(db, ph), r.probe(db)...)
}

func (r *runner) closedMetrics(ph *phase) []metric {
	debug.FreeOSMemory()
	ms := r.standalone()
	debug.FreeOSMemory()
	ms = append(ms, r.replay()...)

	perCall := func(b blockTotals) float64 { return float64(b.wallNs) / float64(max(b.calls, 1)) }
	return append(ms,
		metric{"trace.overhead_frac", perCall(ph.traced)/perCall(ph.plain) - 1, "ratio", int(ph.traced.calls)},
		metric{"host.cpu_ref_ms", median(ph.hostCPU[:]), "ms", rounds},
		metric{"host.mem_ref_ms", median(ph.hostMem[:]), "ms", rounds},
	)
}

// counterMetrics are differences of the public counters between the first
// and the last round boundary, as ratios where a layer can waste work.
func counterMetrics(db *pmblade.DB, ph *phase) []metric {
	a, b := ph.snaps[0], ph.snaps[rounds]
	lookups := func(c counters) int64 { return c.ReadsMem + c.ReadsPM + c.ReadsSSD + c.ReadsMiss }
	first := ph.snaps[1]
	fmt.Printf("reads by tier, first round: memtable=%.3f pm=%.3f ssd=%.3f\n",
		ratio(first.ReadsMem-a.ReadsMem, lookups(first)-lookups(a)),
		ratio(first.ReadsPM-a.ReadsPM, lookups(first)-lookups(a)),
		ratio(first.ReadsSSD-a.ReadsSSD, lookups(first)-lookups(a)))

	keys := lookups(b) - lookups(a)
	ops := int64(0)
	for k := range ph.lat {
		ops += int64(len(ph.lat[k]))
	}
	puts := int64(len(ph.lat[gen.Put]))
	user := b.UserBytes - a.UserBytes
	var ssdTables int64
	for _, t := range db.Engine().RotTargets() {
		if t.Device == "ssd" {
			ssdTables++
		}
	}
	pm, sd := db.Engine().PMDevice(), db.Engine().SSDDevice()
	n := int(ops)
	return []metric{
		{"engine.reads_memtable_frac", ratio(b.ReadsMem-a.ReadsMem, keys), "ratio", int(keys)},
		{"engine.reads_pm_frac", ratio(b.ReadsPM-a.ReadsPM, keys), "ratio", int(keys)},
		{"engine.reads_ssd_frac", ratio(b.ReadsSSD-a.ReadsSSD, keys), "ratio", int(keys)},
		{"engine.put_p95_us", putTail(ph, 0.95), "us", rounds / tailWindow},
		{"engine.put_p99_us", putTail(ph, 0.99), "us", rounds / tailWindow},
		{"engine.write_stall_ms", float64(b.StallNs-a.StallNs) / 1e6, "ms", int(puts)},
		{"engine.mget_coalesced_per_op", ratio(b.MGetCoalesced-a.MGetCoalesced, b.MGetOps-a.MGetOps), "count", int(b.MGetOps - a.MGetOps)},
		{"wal.syncs_per_put", ratio(b.WALSyncs-a.WALSyncs, puts), "ratio", int(puts)},
		{"wal.bytes_per_user_byte", ratio(b.WALBytes-a.WALBytes, user), "ratio", int(puts)},
		{"level0.tables_probed_per_get", ratio(b.L0Probed-a.L0Probed, keys), "count", int(keys)},
		{"level0.filter_skip_ratio", ratio(b.FilterSkips-a.FilterSkips, b.FilterSkips-a.FilterSkips+b.FilterHits-a.FilterHits), "ratio", int(keys)},
		{"sstable.cache_hit_ratio", ratio(b.CacheHits-a.CacheHits, b.CacheHits-a.CacheHits+b.CacheMisses-a.CacheMisses), "ratio", n},
		{"sstable.cache_evictions_per_kop", 1000 * ratio(b.CacheEvictions-a.CacheEvictions, ops), "count", n},
		{"levels.run_tables", float64(ssdTables), "count", 1},
		{"rangeindex.view_hit_ratio", ratio(b.ViewHits-a.ViewHits, b.ViewHits-a.ViewHits+b.ViewFallbacks-a.ViewFallbacks), "ratio", len(ph.lat[gen.Scan])},
		{"rangeindex.builds", float64(b.ViewBuilds - a.ViewBuilds), "count", n},
		{"rangeindex.build_ms_total", float64(b.ViewBuildNs-a.ViewBuildNs) / 1e6, "ms", n},
		{"compaction.flush_count", float64(b.Flushes - a.Flushes), "count", n},
		{"compaction.internal_count", float64(b.Internals - a.Internals), "count", n},
		{"compaction.major_count", float64(b.Majors - a.Majors), "count", n},
		{"compaction.flush_wa", ratio(b.FlushBytes-a.FlushBytes, user), "ratio", int(puts)},
		{"compaction.internal_wa", ratio(b.InternalBytes-a.InternalBytes, user), "ratio", int(puts)},
		{"compaction.major_wa", ratio(b.MajorBytes-a.MajorBytes, user), "ratio", int(puts)},
		{"costmodel.eviction_passes", float64(b.Evictions - a.Evictions), "count", n},
		{"costmodel.eviction_wall_ms", float64(b.EvictionNs-a.EvictionNs) / 1e6, "ms", n},
		{"sched.cpu_busy_s", float64(b.SchedBusyNs-a.SchedBusyNs) / 1e9, "s", n},
		{"pmem.write_bytes_per_user_byte", ratio(b.PMWrite-a.PMWrite, user), "ratio", int(puts)},
		{"pmem.busy_frac", ratio(b.PMBusyNs-a.PMBusyNs, ph.wallNs), "ratio", n},
		{"pmem.used_frac", ratio(pm.Used(), pm.Capacity()), "ratio", 1},
		{"ssd.write_bytes_per_user_byte", ratio(b.SSDWrite-a.SSDWrite, user), "ratio", int(puts)},
		{"ssd.busy_frac", ratio(b.SSDBusyNs-a.SSDBusyNs, ph.wallNs*int64(sd.Parallelism())), "ratio", n},
		{"ssd.io_p50_us", float64(sd.IOLatency().Percentile(0.5)) / 1e3, "us", int(sd.IOLatency().Count())},
	}
}

// timeCalls times n calls of fn in `batches` batches, one span per batch
// under parent, and returns the median time of one call in nanoseconds.
func (r *runner) timeCalls(parent int32, name string, n int, fn func(i int)) float64 {
	per := max(n/batches, 1)
	var ns []float64
	for lo := 0; lo+per <= n; lo += per {
		start := r.tr.now()
		for i := lo; i < lo+per; i++ {
			fn(i)
		}
		end := r.tr.now()
		r.tr.add(name, parent, -1, start, end, per)
		ns = append(ns, float64(end-start)/float64(per))
	}
	return median(ns)
}

// note records a failed call into a layer; the run is then not correct.
func (r *runner) note(what string, err error) {
	if err != nil {
		r.fail("%s: %v", what, err)
	}
}

// streamKeys returns n key indexes below limit from the Get operations of
// the stream, in stream order: the workload's own key distribution.
func (r *runner) streamKeys(n, limit int) []int32 {
	out := make([]int32, 0, n)
	for i := 0; len(out) < n; i++ {
		op := r.in.Ops[i%len(r.in.Ops)]
		if op.Kind == gen.Get {
			out = append(out, op.Key%int32(limit))
		}
	}
	return out
}

// probe reads the quiescent database (flushed and checkpointed, no
// background work) with the stream's own Gets and Scans and divides the
// device counters by the calls: what one call costs the devices at the
// end of the phase, free of compaction traffic.
func (r *runner) probe(db *pmblade.DB) []metric {
	root := r.tr.begin("probe", 0, -1)
	defer r.tr.end(root)
	pm, sd := db.Engine().PMDevice().Stats(), db.Engine().SSDDevice().Stats()
	keys := r.streamKeys(probeGets, len(r.in.Keys))

	pm0, ops0 := pm.BusyTime(), sd.ReadOps(device.CauseClientRead)
	r.timeCalls(root, "probe.get", len(keys), func(i int) {
		_, _, err := db.Get(r.in.Keys[keys[i]])
		r.note("probe get", err)
	})
	pmPerGet := float64(pm.BusyTime()-pm0) / float64(pmem.OptaneProfile.ReadLatency) / float64(len(keys))
	ssdPerGet := ratio(sd.ReadOps(device.CauseClientRead)-ops0, int64(len(keys)))

	bytes0 := sd.ReadBytes(device.CauseClientRead)
	r.timeCalls(root, "probe.scan", probeScans, func(i int) {
		_, err := db.Scan(r.in.Keys[keys[i]], nil, gen.ScanLimit)
		r.note("probe scan", err)
	})
	return []metric{
		{"pmem.read_ops_per_get", pmPerGet, "count", len(keys)},
		{"ssd.read_ops_per_get", ssdPerGet, "count", len(keys)},
		{"ssd.read_bytes_per_scan", ratio(sd.ReadBytes(device.CauseClientRead)-bytes0, probeScans), "bytes", probeScans},
	}
}

// replay loads the workload into a database on zero-latency devices and
// replays the first replayOps operations of the stream, one kind after the
// other: with no device time charged, wall time is the CPU the engine burns
// per call, and the allocation count comes from the same pass.
func (r *runner) replay() []metric {
	root := r.tr.begin("replay", 0, -1)
	defer r.tr.end(root)
	rr := &runner{w: r.w, in: r.in, opts: r.w.options(r.in.Keys, true), oracle: make([]int32, len(r.in.Keys))}
	defer func() {
		r.attempted += rr.attempted
		r.failed += rr.failed
		r.notes = append(r.notes, rr.notes...)
	}()
	db, _, err := rr.setup()
	if err != nil {
		rr.fail("replay setup: %v", err)
		return nil
	}
	runtime.GC()
	var byKind [gen.NumKinds][]gen.Op
	for _, op := range r.in.Ops[:min(replayOps, len(r.in.Ops))] {
		byKind[op.Kind] = append(byKind[op.Kind], op)
	}
	mkeys := make([][]byte, gen.MGetKeys)
	var ms, allocs []metric
	var before, after runtime.MemStats
	for k := gen.Get; k < gen.NumKinds; k++ {
		ops := byKind[k]
		runtime.ReadMemStats(&before)
		start := r.tr.now()
		for _, op := range ops {
			rr.attempted++
			switch k {
			case gen.Get:
				v, ok, err := db.Get(r.in.Keys[op.Key])
				if err != nil || !ok || len(v) != r.w.valueBytes {
					rr.fail("replay get %s: ok=%v err=%v", r.in.Keys[op.Key], ok, err)
				}
			case gen.MGet:
				idx := r.in.MGets[int(op.Key)*gen.MGetKeys:][:gen.MGetKeys]
				for i, key := range idx {
					mkeys[i] = r.in.Keys[key]
				}
				res, err := db.MultiGet(mkeys)
				rr.checkMGet(idx, res, err)
			case gen.Scan:
				res, err := db.Scan(r.in.Keys[op.Key], nil, gen.ScanLimit)
				if err != nil || len(res) != min(gen.ScanLimit, len(r.in.Keys)-int(op.Key)) {
					rr.fail("replay scan from %s: %d entries, err=%v", r.in.Keys[op.Key], len(res), err)
				}
			case gen.Put:
				if err := db.Put(r.in.Keys[op.Key], r.in.Values[op.Val]); err != nil {
					rr.fail("replay put: %v", err)
				}
				rr.oracle[op.Key] = op.Val
			}
		}
		end := r.tr.now()
		runtime.ReadMemStats(&after)
		r.tr.add("replay."+k.String(), root, -1, start, end, len(ops))
		calls := float64(max(len(ops), 1))
		ms = append(ms, metric{"engine.cpu_us_per_" + k.String(), float64(end-start) / 1e3 / calls, "us", len(ops)})
		allocs = append(allocs, metric{"engine.allocs_per_" + k.String(), float64(after.Mallocs-before.Mallocs) / calls, "count", len(ops)})
	}
	if err := db.Close(); err != nil {
		rr.fail("replay close: %v", err)
	}
	return append(ms, allocs...)
}
