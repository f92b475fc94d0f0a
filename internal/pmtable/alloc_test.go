//go:build !race

package pmtable

import (
	"testing"

	"pmblade/internal/kv"
)

// TestGetAllocatesNothing: a hit on a FormatPrefix table compares keys piece
// by piece — in the scan and in the first-key probes of a shared-prefix run —
// and returns a view of the image. (Not under the race detector, which
// changes allocation counts.)
func TestGetAllocatesNothing(t *testing.T) {
	for _, ks := range searchKeyspaces {
		entries, tbl := buildSearchTable(t, testDevice(), ks, 1250, 8)
		i := 0
		allocs := testing.AllocsPerRun(2000, func() {
			if _, ok, err := tbl.Get(entries[i%len(entries)].Key, kv.MaxSeq); !ok || err != nil {
				t.Fatal("present key missing")
			}
			i += 7
		})
		if allocs != 0 {
			t.Errorf("%s: Get allocates %.2f times per hit, want 0", ks.name, allocs)
		}
	}
}
