package costmodel

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReadAmpBenefitSign(t *testing.T) {
	p := Params{Ib: 1, Ip: 0.5, Is: 10, Tp: 0.5}
	// Hot partition with many unsorted tables: positive benefit.
	hot := PartitionState{Unsorted: 10, ReadsPerSec: 100}
	if p.ReadAmpBenefit(hot) <= 0 {
		t.Fatalf("hot partition should warrant compaction: %v", p.ReadAmpBenefit(hot))
	}
	// Cold partition: reads never pay for the compaction.
	cold := PartitionState{Unsorted: 10, ReadsPerSec: 0}
	if p.ReadAmpBenefit(cold) >= 0 {
		t.Fatalf("cold partition should not warrant compaction: %v", p.ReadAmpBenefit(cold))
	}
	// No unsorted tables: nothing to gain.
	sortedOnly := PartitionState{Unsorted: 0, ReadsPerSec: 1000}
	if p.ReadAmpBenefit(sortedOnly) >= 0 {
		t.Fatal("no unsorted tables means no read benefit")
	}
}

func TestReadAmpBenefitGrowsWithUnsorted(t *testing.T) {
	p := Params{Ib: 1, Ip: 0.5, Is: 10, Tp: 0.5}
	prev := p.ReadAmpBenefit(PartitionState{Unsorted: 1, ReadsPerSec: 5})
	for n := 2; n <= 20; n++ {
		cur := p.ReadAmpBenefit(PartitionState{Unsorted: n, ReadsPerSec: 5})
		if cur <= prev {
			t.Fatalf("benefit should grow with unsorted count: n=%d %v <= %v", n, cur, prev)
		}
		prev = cur
	}
}

func TestWriteAmpBenefit(t *testing.T) {
	p := Params{Ib: 1, Ip: 0.5, Is: 10, Tp: 0.5}
	// Update-heavy: lots of redundancy to remove.
	upd := PartitionState{Writes: 1000, Updates: 800}
	if p.WriteAmpBenefit(upd) <= 0 {
		t.Fatal("update-heavy partition should benefit")
	}
	// Insert-only: no redundancy, compaction is pure cost.
	ins := PartitionState{Writes: 1000, Updates: 0}
	if p.WriteAmpBenefit(ins) >= 0 {
		t.Fatal("insert-only partition should not benefit")
	}
}

func TestShouldInternalCompactReasons(t *testing.T) {
	p := Params{Ib: 1, Ip: 0.5, Is: 10, Tp: 0.5, TauW: 1000}
	if ok, reason := p.ShouldInternalCompact(PartitionState{Unsorted: 10, ReadsPerSec: 100}); !ok || reason != "read" {
		t.Fatalf("want read trigger, got %v %q", ok, reason)
	}
	// Below the read gate nothing fires, no matter how hot the partition is
	// ("a small number of unsorted tables" needs no internal compaction).
	few := PartitionState{Unsorted: 1, Size: 5000, ReadsPerSec: 1000, Writes: 100, Updates: 90}
	if ok, _ := p.ShouldInternalCompact(few); ok {
		t.Fatal("below MinUnsortedRead no trigger may fire")
	}
	// Between the gates with no reads: the write trigger needs more tables.
	mid := PartitionState{Unsorted: 3, Size: 5000, Writes: 100, Updates: 90}
	if ok, _ := p.ShouldInternalCompact(mid); ok {
		t.Fatal("below MinUnsortedWrite the write trigger may not fire")
	}
	// Below τ_w: write check is not armed even with redundancy.
	s := PartitionState{Unsorted: 6, Size: 500, Writes: 100, Updates: 90}
	if ok, _ := p.ShouldInternalCompact(s); ok {
		t.Fatal("below τ_w the write check must not fire")
	}
	s.Size = 2000
	if ok, reason := p.ShouldInternalCompact(s); !ok || reason != "write" {
		t.Fatalf("want write trigger, got %v %q", ok, reason)
	}
	if ok, _ := p.ShouldInternalCompact(PartitionState{}); ok {
		t.Fatal("idle partition must not compact")
	}
}

func TestNeedMajor(t *testing.T) {
	p := Params{TauM: 1000}
	if p.NeedMajor(999) {
		t.Fatal("below τ_m")
	}
	if !p.NeedMajor(1000) {
		t.Fatal("at τ_m")
	}
}

func TestSelectPreservedGreedyPicksHottest(t *testing.T) {
	p := Params{TauT: 100}
	parts := []PartitionState{
		{ID: 0, Size: 50, Reads: 500},  // density 10
		{ID: 1, Size: 50, Reads: 100},  // density 2
		{ID: 2, Size: 50, Reads: 300},  // density 6
		{ID: 3, Size: 200, Reads: 900}, // density 4.5 but too big alongside others
	}
	chosen := p.SelectPreserved(parts)
	if !chosen[0] || !chosen[2] {
		t.Fatalf("densest partitions not preserved: %v", chosen)
	}
	if chosen[1] || chosen[3] {
		t.Fatalf("over-budget partitions preserved: %v", chosen)
	}
}

func TestSelectPreservedRespectsBudget(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Params{TauT: int64(rng.Intn(1000) + 100)}
		var parts []PartitionState
		for i := 0; i < 12; i++ {
			parts = append(parts, PartitionState{
				ID:    i,
				Size:  int64(rng.Intn(300) + 1),
				Reads: int64(rng.Intn(1000)),
			})
		}
		chosen := p.SelectPreserved(parts)
		var used int64
		for _, s := range parts {
			if chosen[s.ID] {
				used += s.Size
			}
		}
		return used <= p.TauT
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// preservedTotalReads reports Σ n_i^r over a chosen subset — the objective
// value of Eq. 3.
func preservedTotalReads(parts []PartitionState, chosen map[int]bool) int64 {
	var t int64
	for _, s := range parts {
		if chosen[s.ID] {
			t += s.Reads
		}
	}
	return t
}

// TestSelectPreservedNearOptimal bounds the greedy heuristic against brute
// force: greedy-by-density is not optimal for 0/1 knapsack, but on the
// paper's workloads it should stay within 2x of optimal (and usually match).
func TestSelectPreservedNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		p := Params{TauT: int64(rng.Intn(500) + 100)}
		n := 8
		parts := make([]PartitionState, n)
		for i := range parts {
			parts[i] = PartitionState{ID: i, Size: int64(rng.Intn(200) + 1), Reads: int64(rng.Intn(500))}
		}
		greedy := preservedTotalReads(parts, p.SelectPreserved(parts))

		// Brute force over all subsets.
		var best int64
		for mask := 0; mask < 1<<n; mask++ {
			var size, reads int64
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					size += parts[i].Size
					reads += parts[i].Reads
				}
			}
			if size <= p.TauT && reads > best {
				best = reads
			}
		}
		if best > 0 && float64(greedy) < 0.5*float64(best) {
			t.Fatalf("trial %d: greedy %d < half of optimal %d", trial, greedy, best)
		}
	}
}

func TestZeroSizePartitionsAlwaysPreserved(t *testing.T) {
	p := Params{TauT: 10}
	chosen := p.SelectPreserved([]PartitionState{{ID: 0, Size: 0, Reads: 0}, {ID: 1, Size: 100, Reads: 1}})
	if !chosen[0] {
		t.Fatal("empty partition should be trivially preserved")
	}
	if chosen[1] {
		t.Fatal("oversized partition must not be preserved")
	}
}

func TestVictimsComplementAscending(t *testing.T) {
	parts := []PartitionState{
		{ID: 3, Size: 10, Reads: 1},
		{ID: 0, Size: 10, Reads: 100},
		{ID: 2, Size: 0},
		{ID: 1, Size: 10, Reads: 1},
	}
	p := Params{TauT: 10}
	preserved := p.SelectPreserved(parts)
	got := Victims(parts, preserved)
	// Budget fits only the hottest sized partition (0); 2 is zero-size and
	// trivially preserved. Victims come back in ascending ID order.
	want := []int{1, 3}
	if len(got) != len(want) {
		t.Fatalf("Victims = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Victims = %v, want %v", got, want)
		}
	}
}
