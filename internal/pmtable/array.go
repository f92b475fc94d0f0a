package pmtable

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"pmblade/internal/compress"
	"pmblade/internal/kv"
)

// Array-family body layouts.
//
// FormatArray (the structure MatrixKV uses):
//
//	count u32 | offsets: count * u32 | data: per entry:
//	  klen uvarint | vlen uvarint | trailer u64 LE | key | value
//
// FormatArraySnappy: identical, except each entry's record is individually
// compressed: offsets point at "clen uvarint | compressed(record)".
//
// FormatArraySnappyGroup: entries are packed in groups of groupSize; the
// offsets array has one slot per group pointing at the group's compressed
// block, which decompresses to the concatenated records.

type arrayMeta struct {
	body      []byte
	format    Format
	groupSize int
	count     int // entries (Array/Snappy) or groups (SnappyGroup)
	offOff    int // offset of the offsets array
	dataOff   int // offset of the data area
}

func encodeRecord(dst []byte, e kv.Entry) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(e.Key)))
	dst = binary.AppendUvarint(dst, uint64(len(e.Value)))
	dst = binary.LittleEndian.AppendUint64(dst, kv.Trailer(e.Seq, e.Kind))
	dst = append(dst, e.Key...)
	return append(dst, e.Value...)
}

// fits reports whether two decoded lengths, one after the other, lie inside
// size bytes. The comparison is in uint64: a rotted uvarint near 2^63 goes
// negative through int and would slip under a signed bound into a slice
// expression.
func fits(size int, n, m uint64) bool {
	return size >= 0 && n <= uint64(size) && m <= uint64(size)-n
}

func decodeRecord(p []byte) (e kv.Entry, n int, err error) {
	klen, a := binary.Uvarint(p)
	if a <= 0 {
		return kv.Entry{}, 0, ErrCorrupt
	}
	vlen, b := binary.Uvarint(p[a:])
	if b <= 0 {
		return kv.Entry{}, 0, ErrCorrupt
	}
	off := a + b
	if !fits(len(p)-off-8, klen, vlen) {
		return kv.Entry{}, 0, ErrCorrupt
	}
	trailer := binary.LittleEndian.Uint64(p[off:])
	off += 8
	e.Key = p[off : off+int(klen)]
	off += int(klen)
	e.Value = p[off : off+int(vlen)]
	off += int(vlen)
	e.Seq, e.Kind = kv.SplitTrailer(trailer)
	return e, off, nil
}

func assembleArray(offsets []uint32, data []byte) []byte {
	var body []byte
	body = binary.LittleEndian.AppendUint32(body, uint32(len(offsets)))
	for _, o := range offsets {
		body = binary.LittleEndian.AppendUint32(body, o)
	}
	return append(body, data...)
}

func buildArrayBody(entries []kv.Entry) ([]byte, error) {
	offsets := make([]uint32, 0, len(entries))
	var data []byte
	for _, e := range entries {
		offsets = append(offsets, uint32(len(data)))
		data = encodeRecord(data, e)
	}
	return assembleArray(offsets, data), nil
}

func buildSnappyBody(entries []kv.Entry) ([]byte, error) {
	offsets := make([]uint32, 0, len(entries))
	var data, rec []byte
	for _, e := range entries {
		offsets = append(offsets, uint32(len(data)))
		rec = encodeRecord(rec[:0], e)
		comp := compress.Compress(nil, rec)
		data = binary.AppendUvarint(data, uint64(len(comp)))
		data = append(data, comp...)
	}
	return assembleArray(offsets, data), nil
}

func buildSnappyGroupBody(entries []kv.Entry, groupSize int) ([]byte, error) {
	var offsets []uint32
	var data, block []byte
	for i := 0; i < len(entries); i += groupSize {
		end := i + groupSize
		if end > len(entries) {
			end = len(entries)
		}
		block = block[:0]
		block = binary.AppendUvarint(block, uint64(end-i))
		for _, e := range entries[i:end] {
			block = encodeRecord(block, e)
		}
		comp := compress.Compress(nil, block)
		offsets = append(offsets, uint32(len(data)))
		data = binary.AppendUvarint(data, uint64(len(comp)))
		data = append(data, comp...)
	}
	return assembleArray(offsets, data), nil
}

func openArrayMeta(body []byte, format Format, groupSize int) (*arrayMeta, error) {
	if len(body) < 4 {
		return nil, ErrCorrupt
	}
	m := &arrayMeta{body: body, format: format, groupSize: groupSize}
	m.count = int(binary.LittleEndian.Uint32(body))
	m.offOff = 4
	m.dataOff = 4 + m.count*4
	if m.dataOff > len(body) {
		return nil, fmt.Errorf("%w: offsets array", ErrCorrupt)
	}
	return m, nil
}

func (m *arrayMeta) offset(i int) int {
	return int(binary.LittleEndian.Uint32(m.body[m.offOff+i*4:]))
}

// inflate decompresses the "clen uvarint | compressed" block data starts
// with into scratch's storage.
func inflate(data, scratch []byte) ([]byte, error) {
	clen, n := binary.Uvarint(data)
	if n <= 0 || !fits(len(data)-n, clen, 0) {
		return scratch, ErrCorrupt
	}
	dec, err := compress.Decompress(scratch[:0], data[n:n+int(clen)])
	if err != nil {
		return scratch, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return dec, nil
}

// slotEntries decodes slot i. For Array it is one record; for Snappy it
// decompresses one record; for SnappyGroup it decompresses the whole group
// and returns its records. scratch is reused for decompression.
func (m *arrayMeta) slotEntries(i int, scratch []byte) ([]kv.Entry, []byte, error) {
	off := m.dataOff + m.offset(i)
	if off > len(m.body) {
		return nil, scratch, fmt.Errorf("%w: slot %d at offset %d of a %d-byte body", ErrCorrupt, i, off, len(m.body))
	}
	data := m.body[off:]
	if m.format != FormatArray {
		var err error
		if scratch, err = inflate(data, scratch); err != nil {
			return nil, scratch, err
		}
		data = scratch
	}
	cnt := uint64(1)
	if m.format == FormatArraySnappyGroup {
		var n int
		if cnt, n = binary.Uvarint(data); n <= 0 || cnt == 0 || cnt > uint64(len(data)) {
			return nil, scratch, ErrCorrupt
		}
		data = data[n:]
	}
	out := make([]kv.Entry, 0, cnt)
	for j := 0; j < int(cnt); j++ {
		e, adv, err := decodeRecord(data)
		if err != nil {
			return nil, scratch, err
		}
		out = append(out, e)
		data = data[adv:]
	}
	return out, scratch, nil
}

// findSlot binary-searches the offsets array for the slot a scan for key
// starts at: the one before the first slot whose first key is >= key.
// Versions sort newest-first, so the newest version of key is the earliest
// slot holding it, and a group starting before key may contain it. Every
// probe reads an offset — one PM access per distinct line of the offsets
// array — and then lands on the record it points at, one more: the second
// access per probe that the paper's three-layer structure avoids. The snappy
// variants add decompression.
func (t *Table) findSlot(key []byte) (int, error) {
	m := t.array
	l := lookup{dev: t.dev}
	var scratch []byte
	lo, hi := 0, m.count
	for lo < hi {
		mid := (lo + hi) / 2
		l.touch(m.offOff + mid*4)
		t.dev.ChargeAccess()
		es, s, err := m.slotEntries(mid, scratch)
		scratch = s
		if err != nil {
			return 0, err
		}
		if bytes.Compare(es[0].Key, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return max(lo-1, 0), nil
}

// arrayGet returns the newest version of key visible at seq: entries sort
// newest-first within a key, so that is the first one visible. It returns
// from inside the slot that held it, so the value may alias scratch.
func (t *Table) arrayGet(key []byte, seq uint64) (kv.Entry, bool, error) {
	start, err := t.findSlot(key)
	if err != nil {
		return kv.Entry{}, false, err
	}
	var scratch []byte
	for i := start; i < t.array.count; i++ {
		t.dev.ChargeAccess()
		es, s, err := t.array.slotEntries(i, scratch)
		scratch = s
		if err != nil {
			return kv.Entry{}, false, err
		}
		for _, e := range es {
			c := bytes.Compare(e.Key, key)
			if c > 0 {
				return kv.Entry{}, false, nil
			}
			if c == 0 && e.Seq <= seq {
				return kv.Entry{Key: key, Value: e.Value, Seq: e.Seq, Kind: e.Kind}, true, nil
			}
		}
	}
	return kv.Entry{}, false, nil
}

// arrayIterator walks slots in order.
type arrayIterator struct {
	t       *Table
	slot    int        // the slot pending holds
	pending []kv.Entry // copies: the next slot reuses scratch
	pi      int
	scratch []byte
	cur     kv.Entry
	ok      bool
	err     error // the decode failure that stopped the walk, located
}

func (t *Table) newArrayIterator() kv.Iterator {
	return &arrayIterator{t: t, slot: -1}
}

// seekSlot positions the iterator on the first entry of slot.
func (it *arrayIterator) seekSlot(slot int) {
	it.slot, it.err = slot-1, nil
	it.pending, it.pi = it.pending[:0], 0
	it.advance()
}

func (it *arrayIterator) SeekToFirst() { it.seekSlot(0) }

// fail stops the walk on a slot that does not decode.
func (it *arrayIterator) fail(err error) {
	it.ok, it.err = false, wrapCorrupt(it.t.addr, it.t.size, err)
}

// load decodes slot into pending, charging its one PM access.
func (it *arrayIterator) load(slot int) bool {
	it.t.dev.ChargeAccess()
	es, s, err := it.t.array.slotEntries(slot, it.scratch)
	it.scratch = s
	if err != nil {
		it.fail(err)
		return false
	}
	it.pending = it.pending[:0]
	for _, e := range es {
		it.pending = append(it.pending, e.Clone())
	}
	it.slot, it.pi = slot, 0
	return true
}

func (it *arrayIterator) advance() {
	for it.pi >= len(it.pending) {
		if it.slot+1 >= it.t.array.count {
			it.slot, it.ok = it.t.array.count, false
			return
		}
		if !it.load(it.slot + 1) {
			return
		}
	}
	it.cur, it.ok = it.pending[it.pi], true
	it.pi++
}

func (it *arrayIterator) Valid() bool     { return it.ok }
func (it *arrayIterator) Next()           { it.advance() }
func (it *arrayIterator) Entry() kv.Entry { return it.cur }
func (it *arrayIterator) Err() error      { return it.err }

// posSlotShift packs a slot index above the in-slot entry index in Pos
// tokens; slots hold far fewer than 2^20 entries.
const posSlotShift = 20

// Pos implements kv.PosIterator: (slot, entry-within-slot).
func (it *arrayIterator) Pos() uint64 {
	if !it.ok {
		return kv.PosEOF
	}
	return uint64(it.slot)<<posSlotShift | uint64(it.pi-1)
}

// SetPos implements kv.PosIterator, restoring a token captured from any
// iterator over the same table.
func (it *arrayIterator) SetPos(pos uint64) {
	it.ok, it.err = false, nil
	if pos == kv.PosEOF {
		return
	}
	slot := int(pos >> posSlotShift)
	idx := int(pos & (1<<posSlotShift - 1))
	if slot != it.slot || idx >= len(it.pending) {
		if slot >= it.t.array.count || !it.load(slot) {
			return
		}
	}
	if idx < len(it.pending) {
		it.cur, it.pi, it.ok = it.pending[idx], idx+1, true
	}
}

func (it *arrayIterator) SeekGE(key []byte) {
	start, err := it.t.findSlot(key)
	if err != nil {
		it.fail(err)
		return
	}
	it.seekSlot(start)
	for it.ok && bytes.Compare(it.cur.Key, key) < 0 {
		it.advance()
	}
}
