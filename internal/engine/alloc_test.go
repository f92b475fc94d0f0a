//go:build !race

package engine

import "testing"

// TestPointReadAllocations pins what a point read allocates (not under the
// race detector, which changes the counts): a Get served by a PM table or by
// the memtable allocates its returned value and nothing else — the probes
// below the copy-out boundary build no keys and copy no values — and a
// MultiGet its returned values plus the batch's own slices.
func TestPointReadAllocations(t *testing.T) {
	const perTier = 64
	db, keys := tieredDB(t, perTier)
	i := 0
	// Tier 0, the SSD run, is not this test's subject: block reads and cache
	// inserts allocate.
	for tier := 1; tier < len(tierNames); tier++ {
		got := testing.AllocsPerRun(1000, func() {
			if _, ok, err := db.Get(keys[tier][i%perTier]); !ok || err != nil {
				t.Fatalf("Get: %v, %v", ok, err)
			}
			i += 7
		})
		if got != 1 {
			t.Errorf("Get served by %s allocates %.2f times, want 1 (the returned value)", tierNames[tier], got)
		}
	}

	// 16 keys of one partition, all in the sorted PM table: 16 values, the
	// result slice, the routing pass (the per-partition table, one position
	// list grown 1-2-4-8-16, the active list), the fan-out closure and the
	// partition's four sub-batch slices — 13 beside the values on go1.24.
	const batch, overhead = 16, 13
	mkeys := keys[1][:batch]
	got := testing.AllocsPerRun(1000, func() {
		if res, err := db.MultiGet(mkeys); err != nil || !res[batch-1].Found {
			t.Fatalf("MultiGet: %v", err)
		}
	})
	if got > batch+overhead {
		t.Errorf("MultiGet of %d PM-resident keys allocates %.1f times, want at most %d values + %d", batch, got, batch, overhead)
	}
}
