// Package engine implements the PM-Blade storage engine: a partitioned
// three-tier LSM-tree (DRAM memtable → PM level-0 → SSD level-1) with
// internal compaction, the cost-based compaction strategy of Section IV-C,
// and coroutine-based major compaction. Every ablation configuration of the
// paper (PMBlade, PMBlade-PM, PMBlade-SSD, PMB-P, PMB-PI, PMB-PIC, and the
// RocksDB emulation) is a Config of the same engine.
package engine

import (
	"time"

	"pmblade/internal/costmodel"
	"pmblade/internal/fault"
	"pmblade/internal/pmem"
	"pmblade/internal/pmtable"
	"pmblade/internal/sched"
	"pmblade/internal/ssd"
)

// Config selects the engine's structure and features.
type Config struct {
	// PMCapacity is the simulated persistent-memory size in bytes.
	PMCapacity int64
	// PMProfile / SSDProfile are the device latency models.
	PMProfile  pmem.Profile
	SSDProfile ssd.Profile

	// PartitionBoundaries are the k-1 user-key split points of the k range
	// partitions; nil means a single partition.
	PartitionBoundaries [][]byte

	// MemtableBytes is the flush threshold of each partition's memtable
	// (the paper uses 64 MB; experiments scale it down).
	MemtableBytes int64

	// Level0OnPM places level-0 on persistent memory (PM-Blade); false gives
	// the PMBlade-SSD ablation with SSTable level-0 on SSD.
	Level0OnPM bool
	// PMTableFormat is the level-0 table layout (prefix-compressed for
	// PM-Blade, array-based for the PMB-P / PMB-PI ablations).
	PMTableFormat pmtable.Format
	// GroupSize for grouped PM-table formats (8 or 16).
	GroupSize int
	// L0TableBytes is the target size of sorted PM tables produced by
	// internal compaction.
	L0TableBytes int64
	// SSTableBytes is the target output table size of major compaction.
	SSTableBytes int64

	// InternalCompaction enables internal compaction within level-0.
	InternalCompaction bool
	// CostBased enables the cost models of Section IV-C; when false the
	// engine uses the conventional threshold strategy (compact the whole
	// level-0 once it holds L0TriggerTables tables).
	CostBased bool
	// Cost holds the model parameters; zero-value fields are defaulted.
	Cost costmodel.Params
	// L0TriggerTables is the table-count trigger of the threshold strategy
	// and of the SSD tier's level 0 (RocksDB's default of 4 for SSD level-0;
	// larger for PM).
	L0TriggerTables int

	// SchedMode selects thread, basic-coroutine, or PM-Blade compaction
	// scheduling for major compaction.
	SchedMode sched.Mode
	// Workers is c, the CPU cores used by major compaction.
	Workers int
	// QMax is q, the device I/O concurrency budget of the admission policy.
	QMax int

	// L1TargetBytes is the size target of the SSD tier's level 1. Zero — the
	// default — keeps the tier one sorted run (PM-Blade, PMBlade-SSD); a
	// positive target grows a leveled hierarchy below it, x10 a level (the
	// RocksDB emulation: with level-0 on SSD and no internal compaction).
	L1TargetBytes int64

	// DisableWAL skips write-ahead logging (benchmarks that do not test
	// recovery use it to isolate device effects).
	DisableWAL bool
	// BlockCacheBytes sizes the shared SSD block cache; 0 disables it.
	BlockCacheBytes int64

	// SyncFlush flushes a rotated memtable inline in the writing goroutine
	// instead of handing it to the background workers. Deterministic but
	// slower; the experiments use it so the timing-sensitive cost-model
	// decisions (Eq. 1-3) do not depend on goroutine scheduling.
	SyncFlush bool

	// ScrubInterval is the pause between background integrity-scrub passes
	// over the live tables (DESIGN.md §5.8). 0 — the default — disables the
	// background scrubber; ScrubOnce remains available for synchronous
	// passes. Crash-point enumeration relies on bit-identical device-op
	// sequences, which is why the scrubber is opt-in rather than always-on.
	ScrubInterval time.Duration

	// FaultInjector, when set, is attached to both devices at Open/Recover
	// (faultkit). nil disables fault injection.
	FaultInjector *fault.Injector
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.PMCapacity == 0 {
		c.PMCapacity = 256 << 20
	}
	if c.MemtableBytes == 0 {
		c.MemtableBytes = 4 << 20
	}
	if c.GroupSize == 0 {
		c.GroupSize = pmtable.DefaultGroupSize
	}
	if c.L0TableBytes == 0 {
		c.L0TableBytes = 8 << 20
	}
	if c.SSTableBytes == 0 {
		c.SSTableBytes = 8 << 20
	}
	if c.L0TriggerTables == 0 {
		if c.Level0OnPM {
			c.L0TriggerTables = 16
		} else {
			c.L0TriggerTables = 4
		}
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.QMax == 0 {
		c.QMax = 8
	}
	if c.Cost == (costmodel.Params{}) {
		c.Cost = DefaultCostParams(c.PMCapacity, len(c.PartitionBoundaries)+1)
	}
	return c
}

// DefaultCostParams calibrates the cost-model scalars for the simulated
// devices: I_b ≈ one PM binary-search probe (~3µs of benefit per avoided
// probe), I_p/t̂_p ≈ 1 (internal compaction costs about what it takes),
// I_s ≈ 30µs per record of major-compaction SSD work.
func DefaultCostParams(pmCapacity int64, partitions int) costmodel.Params {
	if partitions < 1 {
		partitions = 1
	}
	return costmodel.Params{
		Ib: 3e-6,
		Ip: 1e-6,
		Is: 30e-6,
		// I_p/t̂_p ≈ 3·10⁻⁴ calibrates Eq. 1 for the op rates scaled
		// experiments run at: a partition seeing ≥ ~50 reads/s over ≥ 4
		// unsorted tables compacts (the paper's production read rates are
		// orders of magnitude higher with the same benefit/cost ratio).
		Tp:   3.3e-3,
		TauW: pmCapacity / int64(4*partitions),
		// τ_m leaves headroom for internal compaction's transient output
		// space (a partition is briefly duplicated while it compacts).
		TauM: pmCapacity * 7 / 10,
		TauT: pmCapacity / 2,
	}
}
