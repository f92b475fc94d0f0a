package pmtable

import (
	"errors"
	"fmt"
	"testing"

	"pmblade/internal/device"
	"pmblade/internal/kv"
)

// badIndex reads as a dictionary index no table has, and as a record or block
// length (uvarint 2 097 151) no test table can hold. hugeLength is the
// uvarint 2^64-1: a length that is -1 once it has been through int.
var (
	badIndex   = []byte{0xff, 0xff, 0x7f}
	hugeLength = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
)

// smash overwrites the header of the group (prefix format) or slot (array
// formats) that holds entry i of a table built with groups of groupSize with
// junk, skip bytes in — on the device, after Open has checksummed the image:
// rot at rest, which only a decode can meet. It returns the first entry of
// the damaged unit.
func smash(t *testing.T, tbl *Table, i, groupSize, skip int, junk []byte) (first int) {
	t.Helper()
	var off int
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
	if err := tbl.dev.WriteAt(tbl.addr, int64(encodedHeaderSize+off+skip), junk, device.CauseUnknown); err != nil {
		t.Fatal(err)
	}
	return first
}

// plainEntries returns n entries key-0000.. with ascending sequences.
func plainEntries(n int) []kv.Entry {
	var entries []kv.Entry
	for i := 0; i < n; i++ {
		entries = append(entries, kv.Entry{Key: []byte(fmt.Sprintf("key-%04d", i)), Value: []byte(fmt.Sprintf("val-%04d", i)), Seq: uint64(i + 1)})
	}
	return entries
}

// TestCorruptGroupIsAnErrorNotAMiss: a group that no longer decodes must
// surface as a *CorruptionError naming the table — from Get (a miss would send
// the reader on to an older tier and an older value) and from the iterator (an
// exhausted-looking iterator would let a compaction install a short output).
func TestCorruptGroupIsAnErrorNotAMiss(t *testing.T) {
	const n, groupSize, hit = 200, 8, 130 // hit: off the binary-search path to entry 0 in every format
	for _, format := range allFormats {
		t.Run(format.String(), func(t *testing.T) {
			entries := plainEntries(n)
			res, err := Build(testDevice(), entries, format, groupSize, device.CauseFlush)
			if err != nil {
				t.Fatal(err)
			}
			tbl := res.Table
			anchor := tbl.NewIterator().(kv.PosIterator)
			anchor.SeekGE(entries[hit].Key)
			pos := anchor.Pos()
			first := smash(t, tbl, hit, groupSize, 0, badIndex)

			located := func(what string, err error) {
				t.Helper()
				var ce *device.CorruptionError
				if !errors.As(err, &ce) || ce.ID != uint64(tbl.Addr()) {
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

// TestHugeLengthIsCorruptNotAPanic: a length field that rots into a uvarint
// at or above 2^63 — a shared-prefix length in the prefix format (two bytes
// into the group header, after the dictionary index and the count), a key or
// block length in the array formats — is negative as an int and used to pass
// the bound that guards the slice expression after it.
func TestHugeLengthIsCorruptNotAPanic(t *testing.T) {
	const n, groupSize, hit = 200, 8, 130
	entries := plainEntries(n)
	for _, format := range allFormats {
		t.Run(format.String(), func(t *testing.T) {
			res, err := Build(testDevice(), entries, format, groupSize, device.CauseFlush)
			if err != nil {
				t.Fatal(err)
			}
			skip := 0
			if format == FormatPrefix {
				skip = 2
			}
			smash(t, res.Table, hit, groupSize, skip, hugeLength)
			if _, ok, err := res.Table.Get(entries[hit].Key, kv.MaxSeq); ok || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Get = found %v, err %v; want ErrCorrupt", ok, err)
			}
			it := res.Table.NewIterator()
			for it.SeekToFirst(); it.Valid(); it.Next() {
			}
			if !errors.Is(it.Err(), ErrCorrupt) {
				t.Fatalf("walk ended with %v, want ErrCorrupt", it.Err())
			}
		})
	}
}

// TestByteFlipNeverPanics sweeps rot at rest over a whole table image, one
// byte at a time, after Open has checksummed it: whatever a Get, a seek or a
// walk then meets must either decode or come back as an error — which the
// engine heals through quarantine — and never index out of range. Two masks
// per byte: 0xff rewrites it, 0x80 turns a length's last uvarint byte into a
// continuation, which is how lengths near 2^63 come about.
func TestByteFlipNeverPanics(t *testing.T) {
	const n, groupSize = 200, 8
	entries := plainEntries(n)
	for _, format := range allFormats {
		t.Run(format.String(), func(t *testing.T) {
			res, err := Build(testDevice(), entries, format, groupSize, device.CauseFlush)
			if err != nil {
				t.Fatal(err)
			}
			tbl := res.Table
			// read drives every decoder over the damaged image.
			read := func() (failed bool, panicked any) {
				defer func() { panicked = recover() }()
				for i := 0; i < n; i += 23 {
					if _, _, err := tbl.Get(entries[i].Key, kv.MaxSeq); err != nil {
						failed = true
					}
				}
				it := tbl.NewIterator()
				for it.SeekToFirst(); it.Valid(); it.Next() {
				}
				failed = failed || it.Err() != nil
				it.SeekGE(entries[n/2].Key)
				for i := 0; i < groupSize && it.Valid(); i++ {
					it.Next()
				}
				return failed || it.Err() != nil, nil
			}
			var old [1]byte
			errs, panics := 0, 0
			for off := int64(0); off < tbl.SizeBytes(); off++ {
				if err := tbl.dev.ReadAt(tbl.addr, off, old[:], device.CauseUnknown); err != nil {
					t.Fatal(err)
				}
				for _, mask := range []byte{0xff, 0x80} {
					if err := tbl.dev.WriteAt(tbl.addr, off, []byte{old[0] ^ mask}, device.CauseUnknown); err != nil {
						t.Fatal(err)
					}
					failed, panicked := read()
					if panicked != nil {
						if panics++; panics <= 3 {
							t.Errorf("byte %d ^ %#x: panic: %v", off, mask, panicked)
						}
					} else if failed {
						errs++
					}
				}
				if err := tbl.dev.WriteAt(tbl.addr, off, old[:], device.CauseUnknown); err != nil {
					t.Fatal(err)
				}
			}
			t.Logf("%d bytes, 2 flips each: %d reads failed, %d panicked", tbl.SizeBytes(), errs, panics)
			if panics > 0 {
				t.Fatalf("%d flips panicked a reader", panics)
			}
			if failed, _ := read(); failed {
				t.Fatal("the restored image does not read cleanly")
			}
		})
	}
}
