package memtable

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"pmblade/internal/kv"
)

// TestGetReturnsPublishedVersionUnderAppends is the regression for findGE
// re-loading the pointer it had already compared: one writer appends versions
// of 16 keys and publishes each key's newest sequence only after the Add
// returns, so Get(k, published) must always find exactly that version — an
// Add of a newer version landing between findGE's compare and its return
// must not make the read miss.
func TestGetReturnsPublishedVersionUnderAppends(t *testing.T) {
	const (
		nKeys   = 16
		nAdds   = 50_000
		readers = 3
	)
	m := New()
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%02d", i))
	}
	var published [nKeys]atomic.Uint64
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; !done.Load(); i++ {
				k := i % nKeys
				pub := published[k].Load()
				if pub == 0 {
					continue
				}
				e, ok := m.Get(keys[k], pub)
				if !ok || e.Seq != pub {
					t.Errorf("Get(%s, %d) = seq %d found=%v, want the published version", keys[k], pub, e.Seq, ok)
					done.Store(true)
					return
				}
			}
		}(r)
	}
	for seq := uint64(1); seq <= nAdds && !done.Load(); seq++ {
		k := int(seq % nKeys)
		m.Add(kv.Entry{Key: keys[k], Value: []byte("v"), Seq: seq})
		published[k].Store(seq)
	}
	done.Store(true)
	wg.Wait()
}
