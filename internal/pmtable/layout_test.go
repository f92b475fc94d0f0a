package pmtable

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"pmblade/internal/device"
	"pmblade/internal/kv"
	"pmblade/internal/pmem"
)

// chargeDevice counts charged accesses: on a 1 ns read profile the device's
// busy time in nanoseconds is the number of accesses.
func chargeDevice() *pmem.Device {
	return pmem.New(256<<20, pmem.Profile{ReadLatency: time.Nanosecond})
}

func charges(dev *pmem.Device) int { return int(dev.Stats().BusyTime()) }

// refFindGroup is the reference model of findGroup, from the sorted entries
// alone: groups [lo, end) open on key's truncated prefix, the scan for key
// covers [start, end), and probes first-key comparisons resolved start when
// two or more groups share the prefix.
func refFindGroup(entries []kv.Entry, groupSize int, key []byte) (lo, start, end, probes int) {
	groups := ceilDiv(len(entries), groupSize)
	target := fixedPrefix(key)
	prefixOf := func(gi int) []byte { p := fixedPrefix(entries[gi*groupSize].Key); return p[:] }
	lo = sort.Search(groups, func(gi int) bool { return bytes.Compare(prefixOf(gi), target[:]) >= 0 })
	end = sort.Search(groups, func(gi int) bool { return bytes.Compare(prefixOf(gi), target[:]) > 0 })
	// The scan starts at the group before the first group whose first key is
	// >= key: newer versions of that key may end the group before it.
	start = max(lo-1, 0)
	if end-lo >= 2 {
		a, b := lo, end
		for a < b {
			mid := (a + b) / 2
			probes++
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
	return lo, start, end, probes
}

// expectedGetCharges computes, from the reference model alone, what Get(key)
// must charge: one access per distinct line of the prefix layer the search
// has to read — what is above those lines is in DRAM — plus one per group it
// lands on.
func expectedGetCharges(entries []kv.Entry, groupSize int, key []byte) (indexLines, landings int) {
	lo, start, end, probes := refFindGroup(entries, groupSize, key)

	// Lines the search reads: the one holding the last group with prefix <=
	// target; when that line opens on target's prefix, the one before it,
	// for its last slot; and when that slot carries the prefix too, the one
	// holding the last group with a smaller prefix.
	lines := map[int]bool{}
	lineOf := func(group int) { lines[group/leafFanout] = true }
	lineOf(max(end-1, 0))
	if end > 0 {
		if lineStart := (end - 1) / leafFanout * leafFanout; lineStart > 0 && lo <= lineStart {
			lineOf(lineStart - 1)
			if lo < lineStart {
				lineOf(max(lo-1, 0))
			}
		}
	}

	// Groups landed on: the first-key probes, then the scan from start to
	// the entry that decides.
	landings = probes
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
// of equal truncated prefixes, from one line to 139.
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
					lines, landings := expectedGetCharges(entries, groupSize, key)
					if got != lines+landings {
						t.Fatalf("Get(%q) charged %d accesses, want %d index lines + %d groups", key, got, lines, landings)
					}
				}
			})
		}
	}
}

// TestGetChargeBudget: on a 10 000-entry table a present key costs its line
// of the prefix layer plus its group, and a key that opens a group one more
// group (the one before it, where newer versions would sit). The one key in 72
// that opens a line as well pays for the previous line, which holds that
// earlier group's slot.
func TestGetChargeBudget(t *testing.T) {
	const groupSize = 8
	dev := chargeDevice()
	entries, tbl := buildSearchTable(t, dev, searchKeyspaces[0], 1250, groupSize)
	total := 0
	for i, e := range entries {
		budget := 2
		if i%groupSize == 0 && i > 0 {
			budget++
			if i/groupSize%leafFanout == 0 {
				budget++
			}
		}
		before := charges(dev)
		if _, ok := mustGet(t, tbl, e.Key, kv.MaxSeq); !ok {
			t.Fatalf("Get(%q) missing", e.Key)
		}
		got := charges(dev) - before
		if got != budget {
			t.Fatalf("Get(%q), entry %d: charged %d accesses, want %d", e.Key, i, got, budget)
		}
		total += got
	}
	if mean := float64(total) / float64(len(entries)); mean > 2+1.0/8+1.0/72+0.01 {
		t.Errorf("mean %.3f accesses per Get, want 2 + 1/8 + 1/72", mean)
	}
}

// TestIndexNodesLineAligned: the region and the prefix layer start on a
// device line and the prefix layer is whole lines, so nine slots are one
// access.
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
			for _, off := range []int{m.leafOff, m.entryOff} {
				if (int(tbl.Addr())+encodedHeaderSize+off)%pmem.LineSize != 0 {
					t.Errorf("%d groups: body offset %d is not line-aligned in the arena", groups, off)
				}
			}
			if got, want := m.entryOff-m.leafOff, ceilDiv(groups, leafFanout)*pmem.LineSize; got != want {
				t.Errorf("%d groups: prefix layer is %d bytes, want %d", groups, got, want)
			}
		}
	}
}

// TestFencesMirrorPrefixLayer: the DRAM fences are the first prefix of every
// prefix-layer line, findGroup over them equals the reference model, and a
// second Open of the same address answers identically — nothing of the index
// depends on state Build held.
func TestFencesMirrorPrefixLayer(t *testing.T) {
	for _, ks := range searchKeyspaces {
		for _, groups := range []int{1, 9, 10, 91, 901, 1250} {
			t.Run(fmt.Sprintf("%s/g%d", ks.name, groups), func(t *testing.T) {
				const groupSize = 8
				dev := testDevice()
				entries, tbl := buildSearchTable(t, dev, ks, groups, groupSize)
				reopened, err := Open(dev, tbl.Addr(), device.CauseUnknown)
				if err != nil {
					t.Fatal(err)
				}
				m := tbl.prefix
				if want := ceilDiv(groups, leafFanout) * prefixLen; len(m.fences) != want {
					t.Fatalf("%d fence bytes, want %d", len(m.fences), want)
				}
				for n := 0; n*prefixLen < len(m.fences); n++ {
					if !bytes.Equal(m.fences[n*prefixLen:][:prefixLen], m.groupPrefix(n*leafFanout)) {
						t.Fatalf("fence %d is not the first prefix of line %d", n, n)
					}
				}
				if !bytes.Equal(reopened.prefix.fences, m.fences) {
					t.Fatal("reopened table derived different fences")
				}
				for _, key := range searchProbes(entries, 3) {
					_, wantStart, wantEnd, _ := refFindGroup(entries, groupSize, key)
					start, end, _ := tbl.findGroup(key)
					if start != wantStart || end != wantEnd {
						t.Fatalf("findGroup(%q) = [%d, %d), reference model [%d, %d)", key, start, end, wantStart, wantEnd)
					}
					if s2, e2, _ := reopened.findGroup(key); s2 != start || e2 != end {
						t.Fatalf("findGroup(%q): reopened table says [%d, %d), built table [%d, %d)", key, s2, e2, start, end)
					}
					got, ok := mustGet(t, reopened, key, kv.MaxSeq)
					want, wantOK := refGet(entries, key, kv.MaxSeq)
					if ok != wantOK || ok && (got.Seq != want.Seq || got.Kind != want.Kind || !bytes.Equal(got.Value, want.Value)) {
						t.Fatalf("reopened Get(%q) = %v,%v want %v,%v", key, got, ok, want, wantOK)
					}
				}
			})
		}
	}
}

// TestFenceFootprint: what the index costs, on the 10 000-entry table of
// TestGetChargeBudget. In DRAM, 139 fences of 24 bytes — a third of a byte
// per entry. On PM, the 139 lines of the prefix layer directly behind the
// meta layer and nothing else: no line of the image is index above them (a
// stored search tree needs 14 + 2 + 1 more, 0.44 bytes per entry).
func TestFenceFootprint(t *testing.T) {
	_, tbl := buildSearchTable(t, testDevice(), searchKeyspaces[0], 1250, 8)
	m := tbl.prefix
	if got := len(m.fences); got != 3336 {
		t.Errorf("fences take %d DRAM bytes, want 139 x 24 = 3336", got)
	}
	if first, n := (encodedHeaderSize+m.leafOff)/pmem.LineSize, (m.entryOff-m.leafOff)/pmem.LineSize; first != 1 || n != 139 {
		t.Errorf("prefix layer is lines %d..%d of the image, want 1..139: nothing between the meta layer and it", first, first+n-1)
	}
}
