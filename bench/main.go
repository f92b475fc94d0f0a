// Command bench is the repository's benchmark: one named workload through
// the public pmblade API on the realistic device profiles, every result
// checked against an in-process oracle, every metric printed by name. See
// README.md beside this file for the workloads, the metrics and the method.
//
//	bash bench/run.sh --workload hot-point --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --workload hot-point --trace 1  per-layer metrics and a span file
//	bash bench/run.sh --aa 5                          A/A procedure behind the bounds
//
// run.sh builds this package into .bench_build/ of the checkout and execs it;
// go run ./bench takes the same flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"pmblade"
	"pmblade/bench/gen"
)

// metric is one reported number. samples is how many observations the
// value summarises (rounds, windows, repeats or calls).
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// report is the outcome of one run.
type report struct {
	tally
	correct bool
	metrics []metric
}

func main() {
	name := flag.String("workload", "", "workload to run: hot-point, cold-read, scan-mix or ingest")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 12, "length of the timed phase; the operation count is sized from it")
	trace := flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes the span file")
	out := flag.String("out", "bench/out", "directory of the span file")
	aa := flag.Int("aa", 0, "run the A/A procedure: two interleaved sets of N runs per workload")
	flag.Parse()

	if *aa > 0 {
		os.Exit(runAA(*aa, *name, *seconds))
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Printf("clock: a 300 ns device wait takes %.3f of 300 ns after calibration\n", calibrateClock())
	rep, err := run(w, *seed, *seconds, false, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printReport(rep)
	if !rep.correct {
		os.Exit(1)
	}
}

// run performs one run of w and returns its report: the end-to-end metrics
// of an untraced run, or the per-layer metrics of a traced one.
func run(w workload, seed int64, seconds int, smoke, traced bool, outDir string) (*report, error) {
	spec := w.spec(seconds, smoke)
	in := gen.New(seed, spec)
	r := &runner{w: w, in: in, opts: w.options(in.Keys, false), oracle: make([]int32, len(in.Keys))}
	if traced {
		r.tr = newTracer(spec.Ops / 2)
	}
	fmt.Printf("bench workload=%s trace=%v inputs=%016x\n", w.name, traced, in.Hash())
	fmt.Printf("host: %s\n", fingerprint(w, seed, seconds, spec))
	fmt.Printf("why: %s\n", w.why)

	// Set-up, several times: the databases before the last are closed again.
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var db *pmblade.DB
	var setups []float64
	for i := 0; i < repeats; i++ {
		if db != nil {
			if err := db.Close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
			db = nil
		}
		debug.FreeOSMemory() // every set-up starts from an empty heap
		var took time.Duration
		var err error
		if db, took, err = r.setup(); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}

	// write_amp counts from here, a quiescent store, through the warm-up and
	// the phase to the flush after it. Counted from the start of the phase it
	// spread 5–7 % on scan-mix: one internal compaction more or less was
	// already in flight at that boundary.
	afterSetup := readCounters(db)
	runtime.GC()
	ph := r.runPhase(db)
	if err := db.Flush(); err != nil {
		return nil, fmt.Errorf("flush after the phase: %w", err)
	}
	if _, err := db.Engine().Checkpoint(); err != nil {
		return nil, fmt.Errorf("checkpoint after the phase: %w", err)
	}
	flushed := readCounters(db)
	spaceAmp := ratio(db.Engine().PMUsed()+db.Engine().SSDDevice().UsedBytes(), w.liveBytes(in.Keys))

	var metrics []metric
	if traced {
		metrics = r.openMetrics(db, ph)
	}
	recovers, err := r.recoverAndVerify(db)
	if err != nil {
		return nil, err
	}
	if traced {
		metrics = append(metrics, r.closedMetrics(ph)...)
	}

	was := cumulativeWriteAmp(afterSetup, ph)
	fmt.Printf("write_amp by round: %s\n", formatFloats(was))
	if mid, end := mean(was[rounds/3:rounds*2/3]), mean(was[rounds*2/3:]); w.levelled && !smoke && math.Abs(end-mid) > 0.10*end {
		r.fail("write_amp has not levelled off: %.3f over the middle third of the phase, %.3f over the last", mid, end)
	}

	if traced {
		// Recovery replays the tail into memtables: memory-bound work that
		// spread 8–25 % between runs of the same code whatever its length,
		// so it is a per-layer metric.
		metrics = append(metrics, metric{"engine.recover_s", median(recovers), "s", len(recovers)})
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, seed))
		if err := r.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("trace: %d spans, %d counter snapshots in %s; op spans cover %.1f%% of the traced blocks' wall time\n",
			len(r.tr.spans), len(r.tr.counters), path, 100*ratio(ph.traced.spanNs, ph.traced.wallNs))
	} else {
		metrics = endToEnd(ph, setups, writeAmp(afterSetup, flushed), spaceAmp)
	}
	fmt.Printf("setup_s by repeat: %s; recover_s by repeat: %s\n", formatFloats(setups), formatFloats(recovers))
	printOps(ph)
	fmt.Printf("clock: a 300 ns device wait takes %.3f of 300 ns at the end of the run\n", clockOvershoot())
	rep := &report{tally: r.tally, correct: r.failed == 0, metrics: metrics}
	for _, m := range rep.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			rep.correct = false
			rep.notes = append(rep.notes, fmt.Sprintf("metric %s has no finite value", m.name))
		}
	}
	return rep, nil
}

// cumulativeWriteAmp is the write amplification from the end of set-up to
// the end of each round.
func cumulativeWriteAmp(afterSetup counters, ph *phase) []float64 {
	was := make([]float64, rounds)
	for i := range was {
		was[i] = writeAmp(afterSetup, ph.snaps[i+1])
	}
	return was
}

// opsPerSecond is the calls per second of each round.
func opsPerSecond(ph *phase) []float64 {
	calls := 0
	for k := range ph.lat {
		calls += len(ph.lat[k])
	}
	perRound := make([]float64, rounds)
	for i, ns := range ph.roundNs {
		perRound[i] = float64(calls) / rounds / (float64(ns) / 1e9)
	}
	return perRound
}

// endToEnd computes the eight end-to-end metrics.
func endToEnd(ph *phase, setups []float64, wa, spaceAmp float64) []metric {
	ms := []metric{
		{"setup_s", median(setups), "s", len(setups)},
		{"ops_per_s", median(opsPerSecond(ph)), "calls/s", rounds},
	}
	for k := gen.Get; k < gen.NumKinds; k++ {
		ms = append(ms, metric{k.String() + "_p50_us", roundStat(ph.lat[k], ph.bounds[k], 1, 0.5) / 1e3, "us", rounds})
	}
	return append(ms,
		metric{"write_amp", wa, "ratio", 1},
		metric{"space_amp", spaceAmp, "ratio", 1},
	)
}

// putTail is a tail percentile of Put in microseconds: the median over the
// windows of tailWindow rounds of the per-window percentile. The put tail is
// a per-layer metric: between runs of the same code it spread 15–60 %.
func putTail(ph *phase, q float64) float64 {
	return roundStat(ph.lat[gen.Put], ph.bounds[gen.Put], tailWindow, q) / 1e3
}

// printOps prints, per operation type, the sample count, the whole-phase
// median and the highest percentile with at least ten samples beyond it.
func printOps(ph *phase) {
	fmt.Printf("phase: %.2f s wall\n", float64(ph.wallNs)/1e9)
	for k := gen.Get; k < gen.NumKinds; k++ {
		n := len(ph.lat[k])
		q := highestPercentile(n)
		fmt.Printf("op %-4s n=%-7d p50=%.2f us  p%g=%.2f us\n", k, n,
			percentileOf(ph.lat[k], 0.5)/1e3, q*100, percentileOf(ph.lat[k], q)/1e3)
	}
	for k := gen.Get; k < gen.NumKinds; k++ {
		per := roundStats(ph.lat[k], ph.bounds[k], 1, 0.5)
		for i := range per {
			per[i] /= 1e3
		}
		fmt.Printf("%s_p50_us by round: %s\n", k, formatFloats(per))
	}
	fmt.Printf("ops_per_s by round: %s\n", formatFloats(opsPerSecond(ph)))
}

// printReport prints every metric by name with unit and sample count, the
// failures, and as the last line the result object the driver reads.
func printReport(rep *report) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	values := map[string]value{}
	for _, m := range rep.metrics {
		fmt.Printf("metric %-36s %14.4f %-8s n=%d\n", m.name, m.value, m.unit, m.samples)
		values[m.name] = value{m.value, m.unit}
	}
	fmt.Printf("ops_attempted=%d ops_failed=%d\n", rep.attempted, rep.failed)
	for _, n := range rep.notes {
		fmt.Println("failure:", n)
	}
	line, err := json.Marshal(map[string]any{
		"correct": rep.correct, "attempted": rep.attempted, "failed": rep.failed, "metrics": values,
	})
	if err != nil {
		// Only a non-finite value fails to marshal; run has reported it above.
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

func formatFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
