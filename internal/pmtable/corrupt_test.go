package pmtable

import (
	"errors"
	"fmt"
	"testing"

	"pmblade/internal/device"
	"pmblade/internal/kv"
)

// smash overwrites the header of the group (prefix format) or slot (array
// formats) that holds entry i of a table built with groups of groupSize —
// on the device, after Open has checksummed the image: rot at rest, which
// only a decode can meet. It returns the first entry of the damaged unit.
func smash(t *testing.T, tbl *Table, i, groupSize int) (first int) {
	t.Helper()
	var off int
	// 0xff 0xff 0x7f reads as a dictionary index no table has, and as a
	// record or block length (uvarint 2 097 151) no test table can hold.
	junk := []byte{0xff, 0xff, 0x7f}
	switch tbl.format {
	case FormatPrefix:
		first = i / groupSize * groupSize
		off = tbl.prefix.entryOff + tbl.prefix.groupEntryOff(i/groupSize)
	case FormatArraySnappyGroup:
		first = i / groupSize * groupSize
		off = tbl.array.dataOff + tbl.array.offset(i/groupSize)
	default:
		first = i
		off = tbl.array.dataOff + tbl.array.offset(i)
	}
	if err := tbl.dev.WriteAt(tbl.addr, int64(encodedHeaderSize+off), junk, device.CauseUnknown); err != nil {
		t.Fatal(err)
	}
	return first
}

// TestCorruptGroupIsAnErrorNotAMiss: a group that no longer decodes must
// surface as a *CorruptionError naming the table — from Get (a miss would send
// the reader on to an older tier and an older value) and from the iterator (an
// exhausted-looking iterator would let a compaction install a short output).
func TestCorruptGroupIsAnErrorNotAMiss(t *testing.T) {
	const n, groupSize, hit = 200, 8, 130 // hit: off the binary-search path to entry 0 in every format
	for _, format := range allFormats {
		t.Run(format.String(), func(t *testing.T) {
			var entries []kv.Entry
			for i := 0; i < n; i++ {
				entries = append(entries, kv.Entry{Key: []byte(fmt.Sprintf("key-%04d", i)), Value: []byte(fmt.Sprintf("val-%04d", i)), Seq: uint64(i + 1)})
			}
			res, err := Build(testDevice(), entries, format, groupSize, device.CauseFlush)
			if err != nil {
				t.Fatal(err)
			}
			tbl := res.Table
			anchor := tbl.NewIterator().(kv.PosIterator)
			anchor.SeekGE(entries[hit].Key)
			pos := anchor.Pos()
			first := smash(t, tbl, hit, groupSize)

			located := func(what string, err error) {
				t.Helper()
				var ce *CorruptionError
				if !errors.As(err, &ce) || ce.Addr != tbl.Addr() {
					t.Fatalf("%s: error %v, want a *CorruptionError at region %d", what, err, tbl.Addr())
				}
			}
			_, ok, err := tbl.Get(entries[hit].Key, kv.MaxSeq)
			if ok {
				t.Fatal("Get served an entry out of a group that does not decode")
			}
			located("Get", err)
			if _, ok, err := tbl.Get(entries[0].Key, kv.MaxSeq); !ok || err != nil {
				t.Fatalf("Get of a key in an intact group = found %v, err %v", ok, err)
			}

			it := tbl.NewIterator().(kv.PosIterator)
			got := 0
			for it.SeekToFirst(); it.Valid(); it.Next() {
				if string(it.Entry().Key) != string(entries[got].Key) {
					t.Fatalf("entry %d is %q, want %q", got, it.Entry().Key, entries[got].Key)
				}
				got++
			}
			if got != first {
				t.Fatalf("walk yielded %d entries, want the %d before the damage", got, first)
			}
			located("walk", it.Err())

			it.SeekGE(entries[hit].Key)
			if it.Valid() {
				t.Fatalf("SeekGE into the damaged group is positioned at %q", it.Entry().Key)
			}
			located("SeekGE", it.Err())
			it.SetPos(pos)
			if it.Valid() {
				t.Fatalf("SetPos into the damaged group is positioned at %q", it.Entry().Key)
			}
			located("SetPos", it.Err())

			// The error lasts until the next seek, not beyond it.
			it.SeekToFirst()
			if !it.Valid() || it.Err() != nil {
				t.Fatalf("after re-seeking to intact entries: Valid %v, Err %v", it.Valid(), it.Err())
			}
		})
	}
}
