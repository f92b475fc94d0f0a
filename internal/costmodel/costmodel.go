// Package costmodel implements the three compaction cost models of
// Section IV-C that drive PM-Blade's cost-based compaction strategy:
//
//   - Eq. 1: when internal compaction pays off for read amplification,
//   - Eq. 2: when internal compaction pays off for SSD write amplification,
//   - Eq. 3: which partitions stay in PM at major compaction (a knapsack,
//     solved greedily by read-density n_i^r / s_i).
//
// The scalar costs I_p, I_s, I_b and the thresholds τ_w, τ_m, τ_t are
// tunables set from device characteristics, exactly as the paper prescribes
// ("Setting Parameters").
//
//pmblade:deterministic package
package costmodel

import "sort"

// Params are the tunable scalars and thresholds of the compaction models.
type Params struct {
	// Ib is the cost of one binary-search lookup on a PM table (Eq. 1).
	Ib float64
	// Ip is the cost for internal compaction to process one record (Eq. 1, 2).
	Ip float64
	// Is is the cost for major compaction to process one record (Eq. 2).
	Is float64
	// Tp is the average time internal compaction takes per record (the rate
	// denominator of Eq. 1).
	Tp float64

	// TauW is the partition-size threshold (bytes) that arms the
	// write-amplification check (Algorithm 1 line 4).
	TauW int64
	// TauM is the level-0 total-size threshold (bytes) that triggers major
	// compaction (Algorithm 1 line 7).
	TauM int64
	// TauT is the PM space (bytes) reserved for partitions preserved in PM
	// during a major compaction (Eq. 3).
	TauT int64
	// MinUnsortedRead gates the read trigger (Eq. 1): "when a partition
	// contains only a small number of unsorted tables ... internal
	// compaction is not needed" (Section IV-C). Zero means 2 — hot reads
	// justify compacting early.
	MinUnsortedRead int
	// MinUnsortedWrite gates the write trigger (Eq. 2); redundancy needs to
	// accumulate before rewriting the sorted run pays off. Zero means 6.
	MinUnsortedWrite int
}

// PartitionState is the observed state of one partition that the models
// consume (Table II's notation).
type PartitionState struct {
	ID int
	// Size is s_i: the partition's PM footprint in bytes.
	Size int64
	// Unsorted is n_i: the number of unsorted PM tables.
	Unsorted int
	// Sorted is m_i: the number of sorted PM tables.
	Sorted int
	// ReadsPerSec is n̂_i^r.
	ReadsPerSec float64
	// Reads, Writes, Updates are n_i^r, n_i^w, n_i^u since the last reset.
	Reads   int64
	Writes  int64
	Updates int64
	// TotalRecords is the actual number of records currently in the
	// partition's level-0 (n_bef in Eq. 2). The paper approximates it with
	// n_i^w because RocksDB-style stats are cheap; this engine tracks the
	// exact count, which keeps repeated internal compactions from being
	// charged only for the records written since the last one.
	TotalRecords int64
}

// ReadAmpBenefit evaluates Eq. 1: the benefit rate of converting n_i unsorted
// tables into sorted ones, minus the compaction's own cost rate. Positive
// means internal compaction should run for read performance.
//
//	Δcost(rf) = n̂_r · (n_i/2) · I_b − I_p/t̂_p
func (p Params) ReadAmpBenefit(s PartitionState) float64 {
	if s.Unsorted == 0 {
		return -p.Ip / p.Tp
	}
	return s.ReadsPerSec*float64(s.Unsorted)/2*p.Ib - p.Ip/p.Tp
}

// WriteAmpBenefit evaluates Eq. 2: the SSD cost saved by removing redundancy
// before the next major compaction, minus the PM cost of the internal
// compaction. Redundancy removed (n_bef − n_aft) is estimated by the update
// count n_i^u; records processed (n_bef) use the exact level-0 record count
// when available, falling back to the paper's n_i^w approximation.
//
//	Δcost(wf) = n_u · I_s − n_bef · I_p
func (p Params) WriteAmpBenefit(s PartitionState) float64 {
	nBef := float64(s.TotalRecords)
	if nBef == 0 {
		nBef = float64(s.Writes)
	}
	return float64(s.Updates)*p.Is - nBef*p.Ip
}

// ShouldInternalCompact applies Algorithm 1 lines 1–6 for one partition:
// internal compaction triggers if Eq. 1 is positive, or if the partition has
// crossed τ_w and Eq. 2 is positive. The returned reason is "read", "write",
// or "" when no compaction is warranted.
func (p Params) ShouldInternalCompact(s PartitionState) (bool, string) {
	minR := p.MinUnsortedRead
	if minR <= 0 {
		minR = 2
	}
	minW := p.MinUnsortedWrite
	if minW <= 0 {
		minW = 6
	}
	if s.Unsorted >= minR && p.ReadAmpBenefit(s) > 0 {
		return true, "read"
	}
	if s.Unsorted >= minW && s.Size >= p.TauW && p.WriteAmpBenefit(s) > 0 {
		return true, "write"
	}
	return false, ""
}

// NeedMajor applies Algorithm 1 line 7: major compaction triggers when
// level-0's total footprint s_0 crosses τ_m.
func (p Params) NeedMajor(level0Size int64) bool {
	return level0Size >= p.TauM
}

// SelectPreserved solves Eq. 3 greedily: choose the subset Φ of partitions
// with maximum total reads subject to Σ s_i ≤ τ_t, by descending read
// density n_i^r/s_i. The complement P−Φ is what major compaction evicts.
// Partitions with zero size are trivially preserved (they cost nothing).
func (p Params) SelectPreserved(parts []PartitionState) (preserved map[int]bool) {
	preserved = make(map[int]bool, len(parts))
	order := make([]PartitionState, 0, len(parts))
	for _, s := range parts {
		if s.Size == 0 {
			preserved[s.ID] = true
			continue
		}
		order = append(order, s)
	}
	sort.Slice(order, func(i, j int) bool {
		di := float64(order[i].Reads) / float64(order[i].Size)
		dj := float64(order[j].Reads) / float64(order[j].Size)
		if di != dj {
			return di > dj
		}
		return order[i].ID < order[j].ID // deterministic tie-break
	})
	var used int64
	for _, s := range order {
		if used+s.Size <= p.TauT {
			preserved[s.ID] = true
			used += s.Size
		}
	}
	return preserved
}

// Victims returns the complement P−Φ of a SelectPreserved choice as
// ascending partition IDs — the order in which the engine acquires the
// victims' maintenance locks (and compacts them when running sequentially),
// so every caller agrees on one canonical victim sequence.
func Victims(parts []PartitionState, preserved map[int]bool) []int {
	var ids []int
	for _, s := range parts {
		if !preserved[s.ID] {
			ids = append(ids, s.ID)
		}
	}
	sort.Ints(ids)
	return ids
}
