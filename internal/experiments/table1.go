package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"pmblade/internal/clock"
	"pmblade/internal/device"
	"pmblade/internal/keyenc"
	"pmblade/internal/kv"
	"pmblade/internal/pmem"
	"pmblade/internal/pmtable"
	"pmblade/internal/ssd"
	"pmblade/internal/sstable"
)

// Table1Result holds the measured query latencies per table count.
type Table1Result struct {
	TableCounts []int
	PMTable     []time.Duration
	SSTCached   []time.Duration
	SSTOnSSD    []time.Duration
}

// RunTable1 reproduces Table I: point-query latency with the data spread
// over 1/2/4/8 tables, comparing a binary-searchable table on PM against an
// SSTable served from cache and an SSTable read from SSD.
func RunTable1(s Scale, w io.Writer) (Table1Result, Report) {
	rep := Report{ID: "table1", Title: "Comparison of query latency"}
	header(w, "Table I", rep.Title)

	counts := []int{1, 2, 4, 8}
	res := Table1Result{TableCounts: counts}
	entriesPerTable := s.n(20000)
	probes := s.n(2000)

	pmDev := pmem.New(1<<30, pmem.OptaneProfile)
	ssdDev := ssd.New(ssd.NVMeProfile)
	bigCache := sstable.NewBlockCache(1 << 30)

	rng := rand.New(rand.NewSource(42))
	for _, nTables := range counts {
		// Build nTables tables with disjoint random key sets; a lookup must
		// consult every table (worst case: key in the last one).
		var pmTables []*pmtable.Table
		var sstCached, sstCold []*sstable.Table
		var allKeys [][][]byte
		for t := 0; t < nTables; t++ {
			entries := make([]kv.Entry, entriesPerTable)
			keys := make([][]byte, entriesPerTable)
			for i := range entries {
				k := keyenc.RecordKey(uint64(t+1), []byte(fmt.Sprintf("pk-%07d", rng.Intn(1<<28))))
				entries[i] = kv.Entry{Key: k, Value: []byte("value-123456789"), Seq: uint64(i + 1)}
				keys[i] = k
			}
			sort.Slice(entries, func(i, j int) bool { return kv.Compare(entries[i], entries[j]) < 0 })
			allKeys = append(allKeys, keys)

			pr, err := pmtable.Build(pmDev, entries, pmtable.FormatPrefix, 8, device.CauseFlush)
			if err != nil {
				panic(err)
			}
			pmTables = append(pmTables, pr.Table)

			bld := sstable.NewBuilder(ssdDev, device.CauseFlush)
			prev := []byte{}
			seq := uint64(0)
			for _, e := range entries {
				// Dedup exact duplicate internal keys (random pk collisions).
				ik := string(e.Key)
				if ik == string(prev) && e.Seq == seq {
					continue
				}
				prev, seq = e.Key, e.Seq
				if err := bld.Add(e); err != nil {
					panic(err)
				}
			}
			tb, err := bld.Finish()
			if err != nil {
				panic(err)
			}
			warm, err := sstable.Open(ssdDev, tb.File(), bigCache)
			if err != nil {
				panic(err)
			}
			sstCached = append(sstCached, warm)
			sstCold = append(sstCold, tb)
		}
		// Warm the cache fully.
		for _, t := range sstCached {
			it := t.NewIterator()
			for it.SeekToFirst(); it.Valid(); it.Next() {
			}
			if err := it.Err(); err != nil {
				panic(err)
			}
		}

		probe := func(find func(k []byte)) time.Duration {
			// Warm up code paths and CPU caches before measuring.
			for i := 0; i < probes/10+8; i++ {
				find(allKeys[rng.Intn(nTables)][i%entriesPerTable])
			}
			// Median per-probe latency: robust against scheduler
			// preemptions on loaded machines, which inflate the mean.
			samples := make([]time.Duration, probes)
			for i := 0; i < probes; i++ {
				ti := rng.Intn(nTables)
				ks := allKeys[ti]
				k := ks[rng.Intn(len(ks))]
				sw := clock.NewStopwatch()
				find(k)
				samples[i] = sw.Elapsed()
			}
			sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
			return samples[len(samples)/2]
		}

		res.PMTable = append(res.PMTable, probe(func(k []byte) {
			for _, t := range pmTables {
				if _, ok, _ := t.Get(k, kv.MaxSeq); ok {
					return
				}
			}
		}))
		res.SSTCached = append(res.SSTCached, probe(func(k []byte) {
			for _, t := range sstCached {
				if _, ok, _ := t.Get(k, kv.MaxSeq); ok {
					return
				}
			}
		}))
		res.SSTOnSSD = append(res.SSTOnSSD, probe(func(k []byte) {
			for _, t := range sstCold {
				if _, ok, _ := t.Get(k, kv.MaxSeq); ok {
					return
				}
			}
		}))
	}

	tw := newTabWriter(w)
	fmt.Fprint(tw, "The number of tables")
	for _, c := range counts {
		fmt.Fprintf(tw, "\t%d", c)
	}
	fmt.Fprintln(tw)
	row := func(name string, vals []time.Duration) {
		fmt.Fprint(tw, name)
		for _, v := range vals {
			fmt.Fprintf(tw, "\t%.1fus", float64(v.Nanoseconds())/1e3)
		}
		fmt.Fprintln(tw)
	}
	row("Table on PM", res.PMTable)
	row("SSTable in cache", res.SSTCached)
	row("SSTable in SSD", res.SSTOnSSD)
	tw.Flush()
	line(&rep, w, "shape: PM close to cache (paper: 3.3us vs 2.6us); SSD ~7x slower (paper: 22.3us @1 table)")
	line(&rep, w, "measured @1 table: pm=%v cache=%v ssd=%v", res.PMTable[0], res.SSTCached[0], res.SSTOnSSD[0])
	return res, rep
}
