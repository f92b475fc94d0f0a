//go:build !race

package wal

import (
	"testing"

	"pmblade/internal/kv"
)

// TestTailAppendAllocatesNothing: once the writer's buffer has grown, a group
// logged into the tail — records encoded in place, one PM write, one fence —
// allocates nothing (not under the race detector, which changes the counts).
func TestTailAppendAllocatesNothing(t *testing.T) {
	w, _, _ := tailLog(t)
	single := [][]kv.Entry{{entry(1)}}
	batch := [][]kv.Entry{{entry(1), entry(2), entry(3)}, {entry(4)}}
	for name, group := range map[string][][]kv.Entry{"single": single, "batches": batch} {
		got := testing.AllocsPerRun(100, func() {
			if _, err := w.AppendBatches(group); err != nil {
				t.Fatal(err)
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("%s: a group logged into the tail allocates %.2f times, want 0", name, got)
		}
	}
}
