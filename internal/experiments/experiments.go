// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI) on the simulated devices. Each experiment prints a
// paper-style table to its writer and returns structured results so tests
// can assert the qualitative shape (who wins, by roughly what factor).
//
// All experiments are scaled down from the paper's 200 GB / 10 M-operation
// setups to complete on a laptop in seconds-to-minutes; EXPERIMENTS.md
// records the scaling and the paper-vs-measured comparison.
//
//pmblade:deterministic package
package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"pmblade/internal/engine"
	"pmblade/internal/pmem"
	"pmblade/internal/pmtable"
	"pmblade/internal/sched"
	"pmblade/internal/ssd"
)

// Scale sizes the experiments. Factor 1.0 is the default "laptop" scale;
// benchmarks may run smaller, the repro binary may run bigger.
type Scale struct {
	Factor float64
}

// n scales a base count, with a floor.
func (s Scale) n(base int) int {
	f := s.Factor
	if f <= 0 {
		f = 1
	}
	v := int(float64(base) * f)
	if v < 16 {
		v = 16
	}
	return v
}

// bytes scales a base byte size, with a floor.
func (s Scale) bytes(base int64) int64 {
	f := s.Factor
	if f <= 0 {
		f = 1
	}
	v := int64(float64(base) * f)
	if v < 4096 {
		v = 4096
	}
	return v
}

// Report is a printed experiment with its headline numbers.
type Report struct {
	ID    string
	Title string
	// Rows of label -> value, in print order, for EXPERIMENTS.md.
	Lines []string
}

// newTabWriter builds the standard table writer.
func newTabWriter(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

func header(w io.Writer, id, title string) {
	fmt.Fprintf(w, "\n=== %s — %s ===\n", id, title)
}

// System names used throughout, matching the paper's figures.
const (
	SysPMBlade    = "PMBlade"
	SysPMBladePM  = "PMBlade-PM"
	SysPMBladeSSD = "PMBlade-SSD"
	SysPMBP       = "PMB-P"
	SysPMBPI      = "PMB-PI"
	SysPMBPIC     = "PMB-PIC"
	SysRocksDB    = "RocksDB"
	SysMatrixKV8  = "MatrixKV-8GB"
	SysMatrixKV80 = "MatrixKV-80GB"
)

// EngineParams are shared sizing knobs for engine-backed experiments.
type EngineParams struct {
	PMCapacity    int64
	MemtableBytes int64
	Realistic     bool // calibrated device profiles vs zero latency
}

func (p EngineParams) profiles() (pmem.Profile, ssd.Profile) {
	if p.Realistic {
		return pmem.OptaneProfile, ssd.NVMeProfile
	}
	return pmem.FastProfile, ssd.FastProfile
}

// SystemConfig builds the engine configuration for a named system (the
// ablation ladder of Section VI-D plus the baselines of VI-B/E).
func SystemConfig(name string, p EngineParams) engine.Config {
	pmProf, ssdProf := p.profiles()
	base := engine.Config{
		PMCapacity:    p.PMCapacity,
		PMProfile:     pmProf,
		SSDProfile:    ssdProf,
		MemtableBytes: p.MemtableBytes,
		DisableWAL:    true,
		SchedMode:     sched.ModeThread,
		Workers:       2,
		QMax:          8,
		// Experiments compare structural strategies (where data lives, when
		// it compacts), so flush synchronously: the async pipeline's
		// scheduling jitter would make the timing-sensitive cost-model
		// decisions (Eq. 1-3) run-dependent.
		SyncFlush: true,
	}
	switch name {
	case SysPMBlade:
		// All techniques: PM level-0, compressed PM table, internal
		// compaction with cost models, coroutine compaction.
		base.Level0OnPM = true
		base.PMTableFormat = pmtable.FormatPrefix
		base.InternalCompaction = true
		base.CostBased = true
		base.SchedMode = sched.ModePMBlade
	case SysPMBladePM:
		// PM level-0 with the conventional threshold strategy: no internal
		// compaction; when the global PM-table count trips, the whole
		// level-0 is compacted down — "fails to use the large PM".
		base.Level0OnPM = true
		base.PMTableFormat = pmtable.FormatArray
		base.L0TriggerTables = 16
	case SysPMBladeSSD:
		// Traditional SSD level-0 (no PM, no techniques).
		base.L0TriggerTables = 4
	case SysPMBP:
		// Ablation: PM level-0 with array-based tables only (threshold
		// strategy, like PMBlade-PM).
		base.Level0OnPM = true
		base.PMTableFormat = pmtable.FormatArray
		base.L0TriggerTables = 16
	case SysPMBPI:
		// + internal compaction with the cost-based strategy.
		base.Level0OnPM = true
		base.PMTableFormat = pmtable.FormatArray
		base.InternalCompaction = true
		base.CostBased = true
	case SysPMBPIC:
		// + compressed PM table.
		base.Level0OnPM = true
		base.PMTableFormat = pmtable.FormatPrefix
		base.InternalCompaction = true
		base.CostBased = true
	case SysRocksDB:
		// SSD level-0 (trigger 4) over a leveled hierarchy, x10 a level.
		base.L1TargetBytes = 64 << 20
	default:
		panic("experiments: unknown system " + name)
	}
	return base
}

// line captures one printed line into a report.
func line(r *Report, w io.Writer, format string, args ...interface{}) {
	s := fmt.Sprintf(format, args...)
	fmt.Fprintln(w, s)
	r.Lines = append(r.Lines, strings.TrimRight(s, "\n"))
}
