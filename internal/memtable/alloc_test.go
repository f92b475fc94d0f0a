//go:build !race

package memtable

import (
	"fmt"
	"testing"

	"pmblade/internal/kv"
)

// TestGetAllocatesNothing: the probe key is built on the stack and the
// returned entry aliases the node, hit or miss. (Not under the race detector,
// which changes allocation counts.)
func TestGetAllocatesNothing(t *testing.T) {
	m := New()
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%012d", i))
		if i%2 == 0 {
			m.Add(kv.Entry{Key: keys[i], Value: []byte("v"), Seq: uint64(i + 1)})
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		if _, ok := m.Get(keys[i%len(keys)], kv.MaxSeq); ok != (i%len(keys)%2 == 0) {
			t.Fatalf("Get(%s) = %v", keys[i%len(keys)], ok)
		}
		i += 7
	})
	if allocs != 0 {
		t.Errorf("Get allocates %.2f times per call, want 0", allocs)
	}
}
