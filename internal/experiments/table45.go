package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"pmblade/internal/clock"
	"pmblade/internal/engine"
	"pmblade/internal/ycsb"
)

// Table4Result is PM space released by internal compaction per skew.
type Table4Result struct {
	Skews    []float64
	Released []int64 // bytes
	UsedPre  []int64
}

// RunTable4 reproduces Table IV: write an update-only workload at varying
// skew, then trigger internal compaction manually and measure the PM space
// it frees. Higher skew means more redundancy and more space released.
func RunTable4(s Scale, w io.Writer) (Table4Result, Report) {
	rep := Report{ID: "table4", Title: "Space released by internal compaction"}
	header(w, "Table IV", rep.Title)

	res := Table4Result{}
	// The keyspace stays fixed (like the paper's, far larger than the
	// memtable) so redundancy is absorbed by level-0, not by DRAM dedup;
	// only the write volume scales.
	keyspace := uint64(50000)
	writes := s.n(60000)
	valSize := 256

	for _, skew := range []float64{0.0, 0.2, 0.4, 0.6, 0.8, 1.0} {
		cfg := SystemConfig(SysPMBlade, EngineParams{
			PMCapacity: 1 << 30,
			// A small memtable keeps DRAM-side dedup negligible, as in the
			// paper (64 MB memtable vs 20 GB written).
			MemtableBytes: 64 << 10,
		})
		// Disable automatic compaction: the measurement triggers it manually.
		cfg.InternalCompaction = false
		cfg.CostBased = false
		cfg.L0TriggerTables = 1 << 30
		db, err := engine.Open(cfg)
		if err != nil {
			panic(err)
		}
		chooser := ycsb.NewSkewedChooser(keyspace, skew, 99)
		rng := rand.New(rand.NewSource(3))
		val := make([]byte, valSize)
		rng.Read(val)
		for i := 0; i < writes; i++ {
			k := []byte(fmt.Sprintf("key-%012d", chooser.Next()))
			if err := db.Put(k, val); err != nil {
				panic(err)
			}
		}
		if err := db.FlushAll(); err != nil {
			panic(err)
		}
		before := db.PMUsed()
		if err := db.InternalCompactAll(); err != nil {
			panic(err)
		}
		after := db.PMUsed()
		res.Skews = append(res.Skews, skew)
		res.Released = append(res.Released, before-after)
		res.UsedPre = append(res.UsedPre, before)
		db.Close()
	}

	tw := newTabWriter(w)
	fmt.Fprint(tw, "Data skew")
	for _, sk := range res.Skews {
		fmt.Fprintf(tw, "\t%.1f", sk)
	}
	fmt.Fprintln(tw)
	fmt.Fprint(tw, "Space released (MB)")
	for _, b := range res.Released {
		fmt.Fprintf(tw, "\t%.1f", float64(b)/(1<<20))
	}
	fmt.Fprintln(tw)
	fmt.Fprint(tw, "Released fraction")
	for i := range res.Released {
		fmt.Fprintf(tw, "\t%.0f%%", 100*float64(res.Released[i])/float64(res.UsedPre[i]))
	}
	fmt.Fprintln(tw)
	tw.Flush()
	line(&rep, w, "shape: released space grows with skew (paper: 11.6GB@0.0 -> 16.2GB@1.0, ~80%% of used PM at skew 1)")
	return res, rep
}

// Table5Result is compaction duration per value size, PM vs SSD.
type Table5Result struct {
	ValueSizes []int
	PMBlade    []time.Duration // internal compaction on PM
	PMBladeSSD []time.Duration // conventional compaction on SSD
	// PMCharged / SSDCharged are the device service time the two compactions
	// were charged (device.Stats busy time, both devices): the model's
	// deterministic share of the wall-clock durations above.
	PMCharged  []time.Duration
	SSDCharged []time.Duration
}

// RunTable5 reproduces Table V: insert a fixed volume of data at several
// value sizes, then compare the duration of PM-internal compaction against
// SSD level-0 compaction of the same data.
func RunTable5(s Scale, w io.Writer) (Table5Result, Report) {
	rep := Report{ID: "table5", Title: "Compaction duration (PM internal vs SSD)"}
	header(w, "Table V", rep.Title)

	res := Table5Result{}
	totalBytes := s.bytes(32 << 20)

	for _, vs := range []int{512, 1024, 4096, 16384, 65536} {
		writes := int(totalBytes) / vs
		if writes < 256 {
			writes = 256
		}
		load := func(cfg engine.Config) *engine.DB {
			db, err := engine.Open(cfg)
			if err != nil {
				panic(err)
			}
			rng := rand.New(rand.NewSource(17))
			val := make([]byte, vs)
			rng.Read(val)
			for i := 0; i < writes; i++ {
				if err := db.Put([]byte(fmt.Sprintf("key-%09d", rng.Intn(writes))), val); err != nil {
					panic(err)
				}
			}
			if err := db.FlushAll(); err != nil {
				panic(err)
			}
			return db
		}

		// PM internal compaction.
		cfgPM := SystemConfig(SysPMBlade, EngineParams{
			PMCapacity: 1 << 30, MemtableBytes: 512 << 10, Realistic: true,
		})
		cfgPM.InternalCompaction = false
		cfgPM.CostBased = false
		cfgPM.L0TriggerTables = 1 << 30
		charged := func(db *engine.DB) time.Duration {
			d := db.SSDDevice().Stats().BusyTime()
			if pm := db.PMDevice(); pm != nil {
				d += pm.Stats().BusyTime()
			}
			return d
		}
		dbPM := load(cfgPM)
		before := charged(dbPM)
		sw := clock.NewStopwatch()
		if err := dbPM.InternalCompactAll(); err != nil {
			panic(err)
		}
		res.PMBlade = append(res.PMBlade, sw.Elapsed())
		res.PMCharged = append(res.PMCharged, charged(dbPM)-before)
		dbPM.Close()

		// SSD compaction of the same volume (PMBlade-SSD level-0 -> run).
		cfgSSD := SystemConfig(SysPMBladeSSD, EngineParams{
			PMCapacity: 1 << 30, MemtableBytes: 512 << 10, Realistic: true,
		})
		cfgSSD.L0TriggerTables = 1 << 30
		dbSSD := load(cfgSSD)
		before = charged(dbSSD)
		sw = clock.NewStopwatch()
		if err := dbSSD.MajorCompactAll(); err != nil {
			panic(err)
		}
		res.PMBladeSSD = append(res.PMBladeSSD, sw.Elapsed())
		res.SSDCharged = append(res.SSDCharged, charged(dbSSD)-before)
		dbSSD.Close()

		res.ValueSizes = append(res.ValueSizes, vs)
	}

	tw := newTabWriter(w)
	fmt.Fprint(tw, "Value size")
	for _, vs := range res.ValueSizes {
		if vs >= 1024 {
			fmt.Fprintf(tw, "\t%dKB", vs/1024)
		} else {
			fmt.Fprintf(tw, "\t%dB", vs)
		}
	}
	fmt.Fprintln(tw)
	fmt.Fprint(tw, "PMBlade")
	for _, d := range res.PMBlade {
		fmt.Fprintf(tw, "\t%dms", d.Milliseconds())
	}
	fmt.Fprintln(tw)
	fmt.Fprint(tw, "PMBlade-SSD")
	for _, d := range res.PMBladeSSD {
		fmt.Fprintf(tw, "\t%dms", d.Milliseconds())
	}
	fmt.Fprintln(tw)
	tw.Flush()
	line(&rep, w, "shape: internal compaction ~2x faster than SSD compaction (paper: 2.1s vs 4s @512B; 50%% @64KB)")
	return res, rep
}
