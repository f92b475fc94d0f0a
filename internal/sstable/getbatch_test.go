package sstable

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pmblade/internal/device"
	"pmblade/internal/fault"
	"pmblade/internal/kv"
	"pmblade/internal/ssd"
)

// batchKey names record i; with 1000-byte values a 4 KiB block holds exactly
// five records, so record i of a table starting at record lo sits in block
// (i-lo)/5 — checked by blockOf, so a format change cannot silently turn
// these tests into something else.
func batchKey(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }

func batchTable(t *testing.T, dev *ssd.Device, lo, hi int, cache *BlockCache) *Table {
	t.Helper()
	var entries []kv.Entry
	for i := lo; i < hi; i++ {
		v := make([]byte, 1000)
		copy(v, batchKey(i))
		entries = append(entries, kv.Entry{Key: batchKey(i), Value: v, Seq: uint64(i + 1), Kind: kv.KindSet})
	}
	tbl := buildTable(t, dev, entries, cache)
	for i := lo; i < hi; i++ {
		probe := kv.AppendInternalKey(nil, batchKey(i), kv.MaxSeq, kv.KindDelete)
		if bi := tbl.seekBlock(probe); bi != (i-lo)/5 {
			t.Fatalf("record %d is in block %d, the tests assume %d", i, bi, (i-lo)/5)
		}
	}
	return tbl
}

// TestGetBatchFetchesDistinctSpansOnce pins the fetch step across the two
// tables of a run: keys in one block share it, file-adjacent missing blocks
// are one read, a cached block between two missing ones splits the span, a
// key found upstream costs nothing, and the device sees one read per span.
func TestGetBatchFetchesDistinctSpansOnce(t *testing.T) {
	dev := ssd.New(ssd.FastProfile)
	cache := NewBlockCache(8 << 20)
	a := batchTable(t, dev, 0, 100, cache)
	b := batchTable(t, dev, 100, 200, cache)
	if _, ok, err := a.Get(batchKey(35), kv.MaxSeq); !ok || err != nil { // block 7 of a is now cached
		t.Fatal(ok, err)
	}
	recs := []int{
		0, 3, // a block 0, shared
		17, 10, // a blocks 3 and 2: one span, out of order in the batch
		30, 35, 40, // a blocks 6, 7 (cached), 8: two spans
		60,       // a block 12
		112, 113, // b block 2, shared
		195,  // b block 19
		7,    // found upstream: block 1 must not be read
		9999, // outside every table
	}
	keys := make([][]byte, len(recs))
	tables := make([]*Table, len(recs))
	for i, r := range recs {
		keys[i] = batchKey(r)
		switch {
		case r < 100:
			tables[i] = a
		case r < 200:
			tables[i] = b
		}
	}
	out, found := make([]kv.Entry, len(keys)), make([]bool, len(keys))
	found[11] = true
	before := dev.Stats().ReadOps(device.CauseClientRead)
	coalesced, err := GetBatch(tables, keys, kv.MaxSeq, out, found)
	if err != nil {
		t.Fatal(err)
	}
	// Spans: a{0} a{2,3} a{6} a{8} a{12} b{2} b{19}.
	if reads := dev.Stats().ReadOps(device.CauseClientRead) - before; reads != 7 {
		t.Fatalf("device reads = %d, want 7 (one per span)", reads)
	}
	// Saved: 3 shares a's block 0, 112/113 share b's block 2, a{2,3} is one read.
	if coalesced != 3 {
		t.Fatalf("coalesced = %d, want 3", coalesced)
	}
	for i, r := range recs {
		switch {
		case i == 11:
			if out[i].Value != nil {
				t.Fatal("a key found upstream was overwritten")
			}
		case r == 9999:
			if found[i] {
				t.Fatal("found a key no table holds")
			}
		default:
			e, ok, err := tables[i].Get(keys[i], kv.MaxSeq)
			if err != nil || !ok || !found[i] || string(out[i].Value) != string(e.Value) || out[i].Seq != e.Seq {
				t.Fatalf("GetBatch(%s) = %v seq %d, Get = %v seq %d (%v)", keys[i], found[i], out[i].Seq, ok, e.Seq, err)
			}
		}
	}
	// Everything fetched was cached: the same batch again reads nothing and
	// still reports its shared blocks.
	for i := range found {
		found[i] = i == 11
	}
	before = dev.Stats().ReadOps(device.CauseClientRead)
	if coalesced, err = GetBatch(tables, keys, kv.MaxSeq, out, found); err != nil || coalesced != 2 {
		t.Fatalf("cached batch: coalesced = %d, err = %v, want 2 shared blocks", coalesced, err)
	}
	if reads := dev.Stats().ReadOps(device.CauseClientRead) - before; reads != 0 {
		t.Fatalf("cached batch read the device %d times", reads)
	}
	// The method form is the same batch aimed at one table.
	for i := range found {
		found[i] = false
	}
	if _, err := b.GetBatch(keys, kv.MaxSeq, out, found); err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if found[i] != (r >= 100 && r < 200) {
			t.Fatalf("Table.GetBatch on b: found[%s] = %v", keys[i], found[i])
		}
	}
}

// TestGetBatchReportsFirstErrorInRequestOrder: two blocks of one batch are
// rotten, in different tables, and their reads are in flight together. The
// error is the first in (file, offset) order every time — not whichever read
// completed first — and it names its block.
func TestGetBatchReportsFirstErrorInRequestOrder(t *testing.T) {
	dev := ssd.New(ssd.Profile{ReadLatency: 20 * time.Microsecond, Parallelism: 8})
	dev.SetFault(fault.New(7))
	a := batchTable(t, dev, 0, 100, nil)
	b := batchTable(t, dev, 100, 200, nil)
	for _, rot := range []struct {
		t  *Table
		bi int
	}{{a, 12}, {b, 2}} {
		h := rot.t.index[rot.bi].handle
		if _, err := dev.Rot(rot.t.file, h.off, h.len); err != nil {
			t.Fatal(err)
		}
	}
	// b's rotten block comes first in the batch; a's comes first on the device.
	recs := []int{112, 195, 0, 60, 30, 150}
	keys := make([][]byte, len(recs))
	tables := make([]*Table, len(recs))
	for i, r := range recs {
		keys[i], tables[i] = batchKey(r), a
		if r >= 100 {
			tables[i] = b
		}
	}
	for round := 0; round < 20; round++ {
		before := dev.Stats().ReadOps(device.CauseClientRead)
		_, err := GetBatch(tables, keys, kv.MaxSeq, make([]kv.Entry, len(keys)), make([]bool, len(keys)))
		var ce *device.CorruptionError
		if !errors.As(err, &ce) || ssd.FileID(ce.ID) != a.file || ce.Off != a.index[12].handle.off {
			t.Fatalf("round %d: err = %v, want block crc of file %d @%d", round, err, a.file, a.index[12].handle.off)
		}
		// Joined, not abandoned: all six reads were made before the error came back.
		if reads := dev.Stats().ReadOps(device.CauseClientRead) - before; reads != 6 {
			t.Fatalf("round %d: %d reads completed before return, want 6", round, reads)
		}
	}
}
