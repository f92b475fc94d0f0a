package pmtable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"pmblade/internal/device"
	"pmblade/internal/keyenc"
	"pmblade/internal/kv"
	"pmblade/internal/pmem"
)

var allFormats = []Format{FormatPrefix, FormatArray, FormatArraySnappy, FormatArraySnappyGroup}

func testDevice() *pmem.Device {
	return pmem.New(256<<20, pmem.FastProfile)
}

// mustGet is Table.Get on an image the test has not damaged.
func mustGet(t testing.TB, tbl *Table, key []byte, seq uint64) (kv.Entry, bool) {
	t.Helper()
	e, ok, err := tbl.Get(key, seq)
	if err != nil {
		t.Fatalf("Get(%q, %d): %v", key, seq, err)
	}
	return e, ok
}

// makeEntries produces n sorted entries with index-table-like keys (long
// shared prefixes) and a sprinkling of multi-version keys and tombstones.
func makeEntries(n int, seed int64) []kv.Entry {
	rng := rand.New(rand.NewSource(seed))
	var entries []kv.Entry
	seq := uint64(1)
	for i := 0; i < n; i++ {
		tid := uint64(rng.Intn(3) + 1)
		pk := []byte(fmt.Sprintf("order-%06d", rng.Intn(n*2)))
		key := keyenc.RecordKey(tid, pk)
		kind := kv.KindSet
		if rng.Intn(10) == 0 {
			kind = kv.KindDelete
		}
		entries = append(entries, kv.Entry{
			Key:   key,
			Value: []byte(fmt.Sprintf("val-%d-%d", i, seq)),
			Seq:   seq,
			Kind:  kind,
		})
		seq++
	}
	sort.Slice(entries, func(i, j int) bool { return kv.Compare(entries[i], entries[j]) < 0 })
	return entries
}

func TestBuildOpenRoundTripAllFormats(t *testing.T) {
	entries := makeEntries(500, 1)
	for _, f := range allFormats {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			dev := testDevice()
			res, err := Build(dev, entries, f, DefaultGroupSize, device.CauseFlush)
			if err != nil {
				t.Fatal(err)
			}
			tbl := res.Table
			if tbl.Len() != len(entries) {
				t.Fatalf("Len = %d want %d", tbl.Len(), len(entries))
			}
			if !bytes.Equal(tbl.Smallest(), entries[0].Key) {
				t.Errorf("Smallest mismatch")
			}
			if !bytes.Equal(tbl.Largest(), entries[len(entries)-1].Key) {
				t.Errorf("Largest mismatch")
			}
			it := tbl.NewIterator()
			it.SeekToFirst()
			for i := 0; i < len(entries); i++ {
				if !it.Valid() {
					t.Fatalf("iterator exhausted at %d/%d", i, len(entries))
				}
				got := it.Entry()
				want := entries[i]
				if !bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Value, want.Value) ||
					got.Seq != want.Seq || got.Kind != want.Kind {
					t.Fatalf("entry %d: got %v want %v", i, got, want)
				}
				it.Next()
			}
			if it.Valid() {
				t.Fatal("iterator should be exhausted")
			}
		})
	}
}

func TestGetFindsNewestVisibleVersion(t *testing.T) {
	// Three versions of one key plus neighbors.
	entries := []kv.Entry{
		{Key: []byte("aaa"), Value: []byte("A"), Seq: 1},
		{Key: []byte("kkk"), Value: []byte("v9"), Seq: 9},
		{Key: []byte("kkk"), Value: []byte("v5"), Seq: 5, Kind: kv.KindDelete},
		{Key: []byte("kkk"), Value: []byte("v2"), Seq: 2},
		{Key: []byte("zzz"), Value: []byte("Z"), Seq: 3},
	}
	sort.Slice(entries, func(i, j int) bool { return kv.Compare(entries[i], entries[j]) < 0 })
	for _, f := range allFormats {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			dev := testDevice()
			res, err := Build(dev, entries, f, 2, device.CauseFlush)
			if err != nil {
				t.Fatal(err)
			}
			tbl := res.Table

			e, ok := mustGet(t, tbl, []byte("kkk"), kv.MaxSeq)
			if !ok || string(e.Value) != "v9" {
				t.Fatalf("Get latest = %v,%v want v9", e, ok)
			}
			e, ok = mustGet(t, tbl, []byte("kkk"), 7)
			if !ok || e.Seq != 5 || e.Kind != kv.KindDelete {
				t.Fatalf("Get@7 = %v,%v want tombstone@5", e, ok)
			}
			e, ok = mustGet(t, tbl, []byte("kkk"), 2)
			if !ok || string(e.Value) != "v2" {
				t.Fatalf("Get@2 = %v,%v want v2", e, ok)
			}
			if _, ok := mustGet(t, tbl, []byte("kkk"), 1); ok {
				t.Fatal("Get@1 should find nothing")
			}
			if _, ok := mustGet(t, tbl, []byte("mmm"), kv.MaxSeq); ok {
				t.Fatal("Get(mmm) should find nothing")
			}
			if _, ok := mustGet(t, tbl, []byte("a"), kv.MaxSeq); ok {
				t.Fatal("Get below smallest should find nothing")
			}
			if _, ok := mustGet(t, tbl, []byte("zzzz"), kv.MaxSeq); ok {
				t.Fatal("Get above largest should find nothing")
			}
		})
	}
}

func TestGetEveryKeyAllFormats(t *testing.T) {
	entries := makeEntries(800, 2)
	// Model: newest version per key.
	model := map[string]kv.Entry{}
	for _, e := range entries {
		if old, ok := model[string(e.Key)]; !ok || e.Seq > old.Seq {
			model[string(e.Key)] = e
		}
	}
	for _, f := range allFormats {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			dev := testDevice()
			res, err := Build(dev, entries, f, DefaultGroupSize, device.CauseFlush)
			if err != nil {
				t.Fatal(err)
			}
			for k, want := range model {
				got, ok := mustGet(t, res.Table, []byte(k), kv.MaxSeq)
				if !ok {
					t.Fatalf("Get(%q) missing", k)
				}
				if got.Seq != want.Seq || !bytes.Equal(got.Value, want.Value) {
					t.Fatalf("Get(%q) = %v want %v", k, got, want)
				}
			}
		})
	}
}

func TestSeekGEAllFormats(t *testing.T) {
	entries := makeEntries(300, 3)
	for _, f := range allFormats {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			dev := testDevice()
			res, err := Build(dev, entries, f, DefaultGroupSize, device.CauseFlush)
			if err != nil {
				t.Fatal(err)
			}
			it := res.Table.NewIterator()
			for trial := 0; trial < 20; trial++ {
				target := entries[(trial*37)%len(entries)].Key
				it.SeekGE(target)
				// Expected: first entry with Key >= target.
				var want *kv.Entry
				for i := range entries {
					if bytes.Compare(entries[i].Key, target) >= 0 {
						want = &entries[i]
						break
					}
				}
				if want == nil {
					if it.Valid() {
						t.Fatalf("SeekGE(%q): expected exhausted", target)
					}
					continue
				}
				if !it.Valid() {
					t.Fatalf("SeekGE(%q): unexpectedly exhausted", target)
				}
				got := it.Entry()
				if !bytes.Equal(got.Key, want.Key) || got.Seq != want.Seq {
					t.Fatalf("SeekGE(%q) = %q@%d want %q@%d",
						target, got.Key, got.Seq, want.Key, want.Seq)
				}
			}
		})
	}
}

func TestPrefixFormatCompressesSharedPrefixKeys(t *testing.T) {
	entries := makeEntries(2000, 4)
	dev := testDevice()
	pref, err := Build(dev, entries, FormatPrefix, DefaultGroupSize, device.CauseFlush)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := Build(dev, entries, FormatArray, DefaultGroupSize, device.CauseFlush)
	if err != nil {
		t.Fatal(err)
	}
	if pref.EncodedBytes >= arr.EncodedBytes {
		t.Errorf("prefix format (%d B) should be smaller than array (%d B) on shared-prefix keys",
			pref.EncodedBytes, arr.EncodedBytes)
	}
}

func TestOpenAfterRestart(t *testing.T) {
	entries := makeEntries(100, 5)
	dev := testDevice()
	res, err := Build(dev, entries, FormatPrefix, DefaultGroupSize, device.CauseFlush)
	if err != nil {
		t.Fatal(err)
	}
	addr := res.Table.Addr()
	if !dev.Persisted(addr) {
		t.Fatal("built table should be persisted (flushed)")
	}
	// Re-open from the raw address, as recovery does.
	tbl, err := Open(dev, addr, device.CauseUnknown)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != len(entries) {
		t.Fatalf("reopened Len = %d want %d", tbl.Len(), len(entries))
	}
	e, ok := mustGet(t, tbl, entries[0].Key, kv.MaxSeq)
	if !ok {
		t.Fatalf("reopened Get(%q) missing", entries[0].Key)
	}
	_ = e
}

func TestBuildEmptyFails(t *testing.T) {
	dev := testDevice()
	if _, err := Build(dev, nil, FormatPrefix, 8, device.CauseFlush); err == nil {
		t.Fatal("expected error building empty table")
	}
}

func TestReleaseReturnsSpace(t *testing.T) {
	entries := makeEntries(100, 6)
	dev := testDevice()
	res, err := Build(dev, entries, FormatArray, 8, device.CauseFlush)
	if err != nil {
		t.Fatal(err)
	}
	used := dev.Used()
	res.Table.Release()
	if dev.Used() >= used {
		t.Fatalf("Release did not shrink usage: before=%d after=%d", used, dev.Used())
	}
}

func TestQuickRoundTripProperty(t *testing.T) {
	// Property: for random entry sets, every format round-trips every entry
	// through its iterator, in order.
	check := func(seed int64, rawFormat uint8) bool {
		f := allFormats[int(rawFormat)%len(allFormats)]
		n := 1 + int(seed%200+200)%200
		entries := makeEntries(n, seed)
		dev := testDevice()
		res, err := Build(dev, entries, f, DefaultGroupSize, device.CauseFlush)
		if err != nil {
			return false
		}
		it := res.Table.NewIterator()
		it.SeekToFirst()
		for i := 0; i < len(entries); i++ {
			if !it.Valid() {
				return false
			}
			got := it.Entry()
			if !bytes.Equal(got.Key, entries[i].Key) || got.Seq != entries[i].Seq {
				return false
			}
			it.Next()
		}
		return !it.Valid()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupSize16(t *testing.T) {
	entries := makeEntries(500, 7)
	dev := testDevice()
	res, err := Build(dev, entries, FormatPrefix, 16, device.CauseFlush)
	if err != nil {
		t.Fatal(err)
	}
	it := res.Table.NewIterator()
	it.SeekToFirst()
	count := 0
	for ; it.Valid(); it.Next() {
		count++
	}
	if count != len(entries) {
		t.Fatalf("group size 16: %d entries iterated, want %d", count, len(entries))
	}
}

func TestOpenRejectsCorruptHeader(t *testing.T) {
	dev := testDevice()
	// A region holding garbage instead of a table image.
	addr, err := dev.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	junk := bytes.Repeat([]byte{0xAB}, 64)
	if err := dev.WriteAt(addr, 0, junk, device.CauseFlush); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dev, addr, device.CauseUnknown); err == nil {
		t.Fatal("garbage region must not open as a table")
	}
	// Unknown address.
	if _, err := Open(dev, pmem.Addr(1<<40), device.CauseUnknown); err == nil {
		t.Fatal("unknown address must not open")
	}
}

func TestOpenRejectsTruncatedImage(t *testing.T) {
	dev := testDevice()
	entries := makeEntries(50, 9)
	res, err := Build(dev, entries, FormatPrefix, 8, device.CauseFlush)
	if err != nil {
		t.Fatal(err)
	}
	// Copy only a prefix of the image into a fresh region: bounds trailer is
	// missing, so Open must fail cleanly.
	img := make([]byte, dev.Size(res.Table.Addr())/2)
	if err := dev.ReadAt(res.Table.Addr(), 0, img, device.CauseClientRead); err != nil {
		t.Fatal(err)
	}
	addr, err := dev.Alloc(len(img))
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteAt(addr, 0, img, device.CauseFlush); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dev, addr, device.CauseUnknown); err == nil {
		t.Fatal("truncated image must not open")
	}
}

func TestFormatStrings(t *testing.T) {
	names := map[Format]string{
		FormatPrefix:           "PM table",
		FormatArray:            "Array-based",
		FormatArraySnappy:      "Array-snappy",
		FormatArraySnappyGroup: "Array-snappy-group",
	}
	for f, want := range names {
		if f.String() != want {
			t.Errorf("Format(%d).String() = %q want %q", f, f.String(), want)
		}
	}
}

// rebuildAt copies img into a fresh region and returns its address.
func rebuildAt(t *testing.T, dev *pmem.Device, img []byte) pmem.Addr {
	t.Helper()
	addr, err := dev.Alloc(len(img))
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteAt(addr, 0, img, device.CauseFlush); err != nil {
		t.Fatal(err)
	}
	return addr
}

// imageOf builds a table and reads back its raw image bytes.
func imageOf(t *testing.T, dev *pmem.Device, format Format) []byte {
	t.Helper()
	res, err := Build(dev, makeEntries(80, 17), format, 8, device.CauseFlush)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, dev.Size(res.Table.Addr()))
	if err := dev.ReadAt(res.Table.Addr(), 0, img, device.CauseClientRead); err != nil {
		t.Fatal(err)
	}
	return img
}

// TestOpenRejectsTornTrailer flips one byte in each section of the image —
// header, body, trailer (bounds/filter), and the CRC itself — and requires
// Open to report ErrCorrupt for every position. This is the torn-write model:
// PM writes are not atomic across cache lines, so any byte may be stale.
func TestOpenRejectsTornTrailer(t *testing.T) {
	dev := testDevice()
	for _, format := range allFormats {
		img := imageOf(t, dev, format)
		// One offset per region of the image.
		offsets := []int{
			4,            // header (format byte)
			len(img) / 2, // body
			len(img) - 6, // trailer (filter bytes)
			len(img) - 1, // stored CRC
		}
		for _, off := range offsets {
			torn := append([]byte(nil), img...)
			torn[off] ^= 0x01
			addr := rebuildAt(t, dev, torn)
			if _, err := Open(dev, addr, device.CauseUnknown); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%v: byte %d flipped: got err %v, want ErrCorrupt", format, off, err)
			}
			dev.Release(addr)
		}
	}
}

// TestOpenRejectsTruncatedBloomSection cuts the image just inside the filter
// section (the CRC and part of the filter gone) — the shape left by a crash
// mid-append. The whole-image checksum cannot match whatever bytes now sit at
// the end, so Open must refuse rather than decode a partial filter.
func TestOpenRejectsTruncatedBloomSection(t *testing.T) {
	dev := testDevice()
	img := imageOf(t, dev, FormatPrefix)
	for _, cut := range []int{4, 12, 40} {
		if cut+4 >= len(img) {
			continue
		}
		addr := rebuildAt(t, dev, img[:len(img)-cut])
		if _, err := Open(dev, addr, device.CauseUnknown); !errors.Is(err, ErrCorrupt) {
			t.Errorf("cut %d bytes: got err %v, want ErrCorrupt", cut, err)
		}
		dev.Release(addr)
	}
}

// TestOpenRejectsInconsistentHeaderWithValidCRC edits one structural field
// of an intact image and recomputes a matching CRC: the checksum passes, so
// the structural checks alone must reject the image — with a located
// *CorruptionError and without panicking.
func TestOpenRejectsInconsistentHeaderWithValidCRC(t *testing.T) {
	dev := testDevice()
	prefixImg := imageOf(t, dev, FormatPrefix) // 80 entries in groups of at most 8
	// numGroups sits behind the meta layer: dictCount u8, then per dictionary
	// entry a one-byte length and its bytes.
	numGroupsOff := encodedHeaderSize + 1
	for i := 0; i < int(prefixImg[encodedHeaderSize]); i++ {
		numGroupsOff += 1 + int(prefixImg[numGroupsOff])
	}
	if got := binary.LittleEndian.Uint32(prefixImg[numGroupsOff:]); got < 10 || got > 80 {
		t.Fatalf("numGroups field reads %d, want 10..80", got)
	}
	leafOff := (numGroupsOff + 4 + pmem.LineSize - 1) &^ (pmem.LineSize - 1) // image offset of the first slot
	setNumGroups := func(n uint32) func([]byte) {
		return func(img []byte) { binary.LittleEndian.PutUint32(img[numGroupsOff:], n) }
	}
	cases := []struct {
		name string
		img  []byte
		edit func(img []byte)
	}{
		// smallLen lives at header offset 14 (magic 4 + format 1 + version 1 +
		// count 4 + groupSize 4); oversized, bodyLen would go negative.
		{"oversized smallLen", imageOf(t, dev, FormatArray), func(img []byte) {
			binary.LittleEndian.PutUint32(img[14:18], uint32(len(img)))
		}},
		{"layout version 1", prefixImg, func(img []byte) { img[5] = 1 }},
		{"layout version from the future", prefixImg, func(img []byte) { img[5] = layoutVersion + 1 }},
		// Index geometry follows from numGroups; each of these makes it
		// disagree with the header's entry count or with the body's size.
		{"no groups", prefixImg, setNumGroups(0)},
		{"fewer groups than hold the entries", prefixImg, setNumGroups(9)},
		{"more groups than entries", prefixImg, setNumGroups(81)},
		{"leaf level past the body", prefixImg, func(img []byte) {
			// Consistent with the entry count, so only the geometry check
			// can object: 4 000 000 groups need ~110 MB of slots.
			binary.LittleEndian.PutUint32(img[6:10], 4_000_000*8)
			setNumGroups(4_000_000)(img)
		}},
		// The slots themselves: a search trusts them to be sorted and to
		// point into the entry layer.
		{"two leaf slots swapped", prefixImg, func(img []byte) {
			a, b := img[leafOff+2*slotSize:][:slotSize], img[leafOff+3*slotSize:][:slotSize]
			tmp := append([]byte(nil), a...)
			copy(a, b)
			copy(b, tmp)
		}},
		{"entryOff past the body", prefixImg, func(img []byte) {
			binary.LittleEndian.PutUint32(img[leafOff+4*slotSize+prefixLen:], uint32(len(img)))
		}},
		{"zero group size", prefixImg, func(img []byte) { binary.LittleEndian.PutUint32(img[10:14], 0) }},
	}
	for _, c := range cases {
		bad := append([]byte(nil), c.img...)
		c.edit(bad)
		binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.Checksum(bad[:len(bad)-4], castagnoli))
		addr := rebuildAt(t, dev, bad)
		_, err := Open(dev, addr, device.CauseUnknown)
		var ce *device.CorruptionError
		if !errors.As(err, &ce) || !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s with recomputed CRC: got err %v, want a *CorruptionError", c.name, err)
		} else if pmem.Addr(ce.ID) != addr {
			t.Errorf("%s: error locates region %d, want %d", c.name, ce.ID, addr)
		}
		dev.Release(addr)
	}
}

// TestOpenVerifiesBeforeDecodingHeader regression-tests the Open ordering: a
// bad magic *and* a bad checksum must surface as the checksum error, proving
// the CRC runs before decodeHeader looks at the magic.
func TestOpenVerifiesBeforeDecodingHeader(t *testing.T) {
	dev := testDevice()
	img := imageOf(t, dev, FormatPrefix)
	bad := append([]byte(nil), img...)
	binary.LittleEndian.PutUint32(bad[0:4], 0xDEADBEEF) // clobber magic, CRC now stale
	addr := rebuildAt(t, dev, bad)
	_, err := Open(dev, addr, device.CauseUnknown)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got err %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "image checksum") {
		t.Errorf("err %q should be the checksum failure, not a header decode failure", err)
	}
}
