package pmtable

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"pmblade/internal/device"
	"pmblade/internal/kv"
	"pmblade/internal/pmem"
)

// Differential test of the prefix-layer search against a sort.Search
// reference over the sorted entries. It uses nothing but Build, Get and
// SeekGE, so it holds for any layout of the prefix layer and stays as the
// reference when the layout changes.

// searchKeyspace is one family of keys; key(i) is increasing in i and every
// family keeps one dictionary prefix, so a table of n entries has exactly
// ceil(n/groupSize) groups.
type searchKeyspace struct {
	name     string
	key      func(i int) []byte
	versions int // versions per key
}

var searchKeyspaces = []searchKeyspace{
	// Short keys, unique truncated prefixes, gaps between neighbours.
	{"unique", func(i int) []byte { return []byte(fmt.Sprintf("user%012d", 2*i+1)) }, 1},
	// Three versions per key never divide a group of 8 or 16: the versions
	// of one key straddle every other group boundary.
	{"versions", func(i int) []byte { return []byte(fmt.Sprintf("user%012d", 2*i+1)) }, 3},
	// Every key shares 30 leading bytes, more than the prefix layer keeps:
	// the whole table is one run of equal truncated prefixes.
	{"shared30", func(i int) []byte { return []byte(fmt.Sprintf("tenant-00/orders/by-customer/%08d", 2*i+1)) }, 1},
	// Runs of 400 keys (dozens of groups) agree on their first 24 bytes and
	// differ from the next run inside them; two versions each.
	{"clusters", func(i int) []byte {
		return []byte(fmt.Sprintf("tenant-00/idx/%08d%08d", i/400, 2*(i%400)+1))
	}, 2},
}

func buildSearchTable(t *testing.T, dev *pmem.Device, ks searchKeyspace, groups, groupSize int) ([]kv.Entry, *Table) {
	t.Helper()
	n := groups * groupSize
	entries := make([]kv.Entry, 0, n)
	for i := 0; len(entries) < n; i++ {
		for v := ks.versions; v > 0 && len(entries) < n; v-- {
			kind := kv.KindSet
			if (i+v)%11 == 0 {
				kind = kv.KindDelete
			}
			entries = append(entries, kv.Entry{
				Key:   ks.key(i),
				Value: []byte(fmt.Sprintf("v%d.%d", i, v)),
				Seq:   uint64(10 * v),
				Kind:  kind,
			})
		}
	}
	if !sort.SliceIsSorted(entries, func(i, j int) bool { return kv.Compare(entries[i], entries[j]) < 0 }) {
		t.Fatal("test keyspace is not sorted")
	}
	res, err := Build(dev, entries, FormatPrefix, groupSize, device.CauseFlush)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Table.prefix.numGroups; got != groups {
		t.Fatalf("built %d groups, want %d", got, groups)
	}
	return entries, res.Table
}

// refSeek is the reference SeekGE: the index of the first entry with
// Key >= key.
func refSeek(entries []kv.Entry, key []byte) int {
	return sort.Search(len(entries), func(i int) bool { return bytes.Compare(entries[i].Key, key) >= 0 })
}

// refGet is the reference Get: entries sort by key, newest first.
func refGet(entries []kv.Entry, key []byte, seq uint64) (kv.Entry, bool) {
	for i := refSeek(entries, key); i < len(entries) && bytes.Equal(entries[i].Key, key); i++ {
		if entries[i].Seq <= seq {
			return entries[i], true
		}
	}
	return kv.Entry{}, false
}

// searchProbes returns the present keys of entries (every stride-th) plus,
// around each, a key just below and just above it that is absent, plus keys
// outside the table's range on both sides.
func searchProbes(entries []kv.Entry, stride int) [][]byte {
	probes := [][]byte{
		[]byte("a"),                            // below smallest, shorter than any key
		entries[0].Key[:len(entries[0].Key)-1], // below smallest, a prefix of it
		append(append([]byte(nil), entries[len(entries)-1].Key...), 0), // just above largest
		[]byte("zzzz"),
	}
	for i := 0; i < len(entries); i += stride {
		k := entries[i].Key
		below := append([]byte(nil), k...)
		below[len(below)-1]--
		probes = append(probes, k, below, append(append([]byte(nil), k...), 0))
	}
	return probes
}

func TestSearchMatchesReference(t *testing.T) {
	// Group counts on both sides of a line boundary (9 slots) at one, ten and
	// a hundred lines, and one typical size.
	groupCounts := []int{1, 9, 10, 90, 91, 900, 901, 1250}
	for _, ks := range searchKeyspaces {
		for _, groupSize := range []int{8, 16} {
			for _, groups := range groupCounts {
				name := fmt.Sprintf("%s/gs%d/g%d", ks.name, groupSize, groups)
				t.Run(name, func(t *testing.T) {
					entries, tbl := buildSearchTable(t, testDevice(), ks, groups, groupSize)
					stride := 1
					if len(entries) > 2000 {
						stride = 7 // coprime to both group sizes: hits every in-group position
					}
					it := tbl.NewIterator()
					for _, key := range searchProbes(entries, stride) {
						for _, seq := range []uint64{kv.MaxSeq, 25, 10, 5} {
							want, wantOK := refGet(entries, key, seq)
							got, ok := mustGet(t, tbl, key, seq)
							if ok != wantOK || ok && (!bytes.Equal(got.Key, key) || got.Seq != want.Seq ||
								got.Kind != want.Kind || !bytes.Equal(got.Value, want.Value)) {
								t.Fatalf("Get(%q, %d) = %v,%v want %v,%v", key, seq, got, ok, want, wantOK)
							}
						}
						it.SeekGE(key)
						if i := refSeek(entries, key); i == len(entries) {
							if it.Valid() {
								t.Fatalf("SeekGE(%q) = %q, want exhausted", key, it.Entry().Key)
							}
						} else if !it.Valid() || !bytes.Equal(it.Entry().Key, entries[i].Key) || it.Entry().Seq != entries[i].Seq {
							t.Fatalf("SeekGE(%q): valid=%v, want %q@%d", key, it.Valid(), entries[i].Key, entries[i].Seq)
						}
					}
				})
			}
		}
	}
}
