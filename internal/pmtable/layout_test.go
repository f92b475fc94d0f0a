package pmtable

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"pmblade/internal/kv"
	"pmblade/internal/pmem"
)

// chargeDevice counts charged accesses: on a 1 ns read profile the device's
// busy time in nanoseconds is the number of accesses.
func chargeDevice() *pmem.Device {
	return pmem.New(256<<20, pmem.Profile{ReadLatency: time.Nanosecond})
}

func charges(dev *pmem.Device) int { return int(dev.Stats().BusyTime()) }

// expectedGetCharges computes, from the table's geometry and the reference
// model alone, what Get(key) must charge: one access per distinct line of
// the prefix layer the search has to read, plus one per group it lands on.
func expectedGetCharges(tbl *Table, entries []kv.Entry, groupSize int, key []byte) (indexLines, landings int) {
	m := tbl.prefix
	target := fixedPrefix(key)
	prefixOf := func(gi int) []byte { p := fixedPrefix(entries[gi*groupSize].Key); return p[:] }
	lo := sort.Search(m.numGroups, func(gi int) bool { return bytes.Compare(prefixOf(gi), target[:]) >= 0 })
	end := sort.Search(m.numGroups, func(gi int) bool { return bytes.Compare(prefixOf(gi), target[:]) > 0 })

	// Image offsets the search reads: down to the leaf line holding the last
	// group with prefix <= target; when that line opens on target's prefix,
	// the slot before it in the previous line; and when that slot carries
	// the prefix too, down to the leaf line holding the last group with a
	// smaller prefix.
	lines := map[int]bool{}
	descend := func(group int) {
		for _, lv := range m.inner {
			lines[(encodedHeaderSize+lv.off+group/lv.stride/innerFanout*pmem.LineSize)/pmem.LineSize] = true
		}
		lines[(encodedHeaderSize+m.slotOff(group))/pmem.LineSize] = true
	}
	descend(max(end-1, 0))
	if end > 0 {
		if lineStart := (end - 1) / leafFanout * leafFanout; lineStart > 0 && lo <= lineStart {
			lines[(encodedHeaderSize+m.slotOff(lineStart-1))/pmem.LineSize] = true
			if lo < lineStart {
				descend(max(lo-1, 0))
			}
		}
	}

	// Groups landed on: the first-key probes that resolve a run of equal
	// prefixes, then the scan from the group before the first group whose
	// first key is >= key to the entry that decides.
	start := max(lo-1, 0)
	if end-lo >= 2 {
		a, b := lo, end
		for a < b {
			mid := (a + b) / 2
			landings++
			if bytes.Compare(entries[mid*groupSize].Key, key) < 0 {
				a = mid + 1
			} else {
				b = mid
			}
		}
		if a > lo {
			start = a - 1
		}
	}
	for gi := start; gi < end; gi++ {
		landings++
		last := min((gi+1)*groupSize, len(entries)) - 1
		if bytes.Compare(entries[last].Key, key) >= 0 {
			break
		}
	}
	return len(lines), landings
}

// TestGetChargesOneAccessPerLine: a Get is charged exactly the distinct
// 256-byte lines of the prefix layer it must read plus the groups it lands
// on — for unique prefixes, for versions straddling groups and for long runs
// of equal truncated prefixes, at every tree height.
func TestGetChargesOneAccessPerLine(t *testing.T) {
	for _, ks := range searchKeyspaces {
		for _, groups := range []int{1, 9, 10, 91, 901, 1250} {
			t.Run(fmt.Sprintf("%s/g%d", ks.name, groups), func(t *testing.T) {
				const groupSize = 8
				dev := chargeDevice()
				entries, tbl := buildSearchTable(t, dev, ks, groups, groupSize)
				for _, key := range searchProbes(entries, 3) {
					if bytes.Compare(key, tbl.smallest) < 0 || bytes.Compare(key, tbl.largest) > 0 {
						continue // answered from the fence keys, no access
					}
					before := charges(dev)
					tbl.Get(key, kv.MaxSeq)
					got := charges(dev) - before
					lines, landings := expectedGetCharges(tbl, entries, groupSize, key)
					if got != lines+landings {
						t.Fatalf("Get(%q) charged %d accesses, want %d index lines + %d groups", key, got, lines, landings)
					}
				}
			})
		}
	}
}

// TestGetChargeBudget: on a 10 000-entry table a present key costs one line
// per tree level plus its group, and a key that opens a group one more group
// (the one before it, where newer versions would sit). The one key in 72
// that opens a leaf line as well pays for the previous leaf line, which
// holds that earlier group's slot.
func TestGetChargeBudget(t *testing.T) {
	const groupSize = 8
	dev := chargeDevice()
	entries, tbl := buildSearchTable(t, dev, searchKeyspaces[0], 1250, groupSize)
	height := len(tbl.prefix.inner) + 1
	if height != 4 {
		t.Fatalf("1250 groups make %d levels, want 4", height)
	}
	total := 0
	for i, e := range entries {
		budget := height + 1
		if i%groupSize == 0 && i > 0 {
			budget++
			if i/groupSize%leafFanout == 0 {
				budget++
			}
		}
		before := charges(dev)
		if _, ok := tbl.Get(e.Key, kv.MaxSeq); !ok {
			t.Fatalf("Get(%q) missing", e.Key)
		}
		got := charges(dev) - before
		if got != budget {
			t.Fatalf("Get(%q), entry %d: charged %d accesses, want %d", e.Key, i, got, budget)
		}
		total += got
	}
	if mean := float64(total) / float64(len(entries)); mean > float64(height)+1.15 {
		t.Errorf("mean %.3f accesses per Get, want %d + 1/8 + 1/72", mean, height+1)
	}
}

// TestIndexNodesLineAligned: the region and every node of every level start
// on a device line, so one node is one access.
func TestIndexNodesLineAligned(t *testing.T) {
	dev := testDevice()
	if _, err := dev.Alloc(13); err != nil { // leave the cursor off a boundary
		t.Fatal(err)
	}
	for _, groups := range []int{1, 9, 10, 90, 91, 900, 901, 1250} {
		for _, ks := range searchKeyspaces[:3] { // dictionaries of different lengths
			_, tbl := buildSearchTable(t, dev, ks, groups, 8)
			m := tbl.prefix
			if tbl.Addr()%pmem.LineSize != 0 {
				t.Fatalf("%d groups: region %d not line-aligned", groups, tbl.Addr())
			}
			offs := []int{m.leafOff, m.entryOff}
			nodes := ceilDiv(groups, leafFanout)
			for i := len(m.inner) - 1; i >= 0; i-- {
				lv := m.inner[i]
				if lv.seps != nodes {
					t.Errorf("%d groups: level %d has %d separators for %d nodes below", groups, i, lv.seps, nodes)
				}
				nodes = ceilDiv(lv.seps, innerFanout)
				offs = append(offs, lv.off)
			}
			if nodes != 1 {
				t.Errorf("%d groups: top level has %d nodes, want one root", groups, nodes)
			}
			for _, off := range offs {
				if (int(tbl.Addr())+encodedHeaderSize+off)%pmem.LineSize != 0 {
					t.Errorf("%d groups: level at body offset %d is not line-aligned in the arena", groups, off)
				}
			}
		}
	}
}
