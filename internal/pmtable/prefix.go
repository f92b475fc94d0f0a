package pmtable

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"pmblade/internal/compress"
	"pmblade/internal/kv"
	"pmblade/internal/pmem"
)

// Prefix-format body layout: the paper's three layers. The region is
// pmem.LineSize-aligned and the body starts encodedHeaderSize bytes into the
// image; the pad puts the prefix layer on a line boundary of the image, so
// every nine slots are exactly one device line.
//
//	meta layer:   dictCount u8 | dict entries: len uvarint + bytes
//	prefix layer: numGroups u32 | zero pad to the next line |
//	              lines of up to leafFanout slots, zero padded to one line;
//	              slot gi, in key order:
//	                P-byte prefix of group gi's first full key (zero padded)
//	                entryOff u32 (offset into entry layer)
//	entry layer:  per group:
//	                metaIdx u8 | count uvarint | sharedLen uvarint | shared
//	                per entry: remLen uvarint | valLen uvarint |
//	                           trailer u64 LE | rem | value
//
// Full key = dict[metaIdx] + shared + rem. The dictionary extracts long
// leading prefixes shared by many keys ({tableID} encodings); the per-group
// shared prefix removes what the dictionary missed.
//
// The index above the prefix layer is not stored: Open copies the first
// prefix of every line into one flat DRAM slice (fences), beside the other
// search metadata. A search picks its line there and fetches only it from PM.

const (
	slotSize   = prefixLen + 4            // prefix + entryOff u32
	leafFanout = pmem.LineSize / slotSize // 9 slots to a line
)

type prefixMeta struct {
	body      []byte // zero-copy arena view
	dict      [][]byte
	numGroups int
	fences    []byte // DRAM: the first prefix of every prefix-layer line, prefixLen bytes each
	leafOff   int    // offset of the prefix layer's first line in body
	entryOff  int    // offset of entry layer in body
}

// layout places the prefix-layer lines of m.numGroups groups from body offset
// off (just past the numGroups field), then the entry layer. Builder and Open
// share it.
func (m *prefixMeta) layout(off int) {
	off += -(encodedHeaderSize + off) & (pmem.LineSize - 1)
	m.leafOff, m.entryOff = off, off+ceilDiv(m.numGroups, leafFanout)*pmem.LineSize
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func buildPrefixBody(entries []kv.Entry, groupSize int) ([]byte, error) {
	// Meta layer: collect distinct metaPrefixLen-byte leading prefixes, in
	// first-appearance order, capped at 255 dictionary slots. Keys shorter
	// than the granularity use the empty dictionary entry 0.
	dict := [][]byte{{}}
	dictIdx := make(map[string]int)

	metaIdxOf := func(key []byte) int {
		if len(key) < metaPrefixLen {
			return 0
		}
		// The map index expression with an inline string conversion is
		// allocation-free; build throughput depends on it (Figure 6a).
		if i, ok := dictIdx[string(key[:metaPrefixLen])]; ok {
			return i
		}
		if len(dict) >= 255 {
			return 0
		}
		p := string(key[:metaPrefixLen])
		dict = append(dict, []byte(p))
		dictIdx[p] = len(dict) - 1
		return len(dict) - 1
	}

	// Split into groups of groupSize entries, additionally breaking at
	// dictionary-prefix boundaries so one group references one meta entry.
	type group struct {
		first, count int
		metaIdx      int
	}
	groups := make([]group, 0, len(entries)/groupSize+1)
	metaIdxs := make([]int, len(entries))
	for i := range entries {
		metaIdxs[i] = metaIdxOf(entries[i].Key)
	}
	for i := 0; i < len(entries); {
		mi := metaIdxs[i]
		n := 1
		for n < groupSize && i+n < len(entries) && metaIdxs[i+n] == mi {
			n++
		}
		groups = append(groups, group{first: i, count: n, metaIdx: mi})
		i += n
	}

	// Entry layer. Preallocate roughly the payload size so appends do not
	// repeatedly reallocate.
	var payload int
	for i := range entries {
		payload += len(entries[i].Key) + len(entries[i].Value) + 12
	}
	entryLayer := make([]byte, 0, payload)
	groupOffs := make([]int, len(groups))
	for gi, g := range groups {
		groupOffs[gi] = len(entryLayer)
		dictP := dict[g.metaIdx]
		// Shared prefix of all keys in the group, beyond the dict prefix.
		shared := entries[g.first].Key[len(dictP):]
		for j := 1; j < g.count; j++ {
			k := entries[g.first+j].Key[len(dictP):]
			n := compress.SharedPrefixLen(shared, k)
			shared = shared[:n]
		}
		entryLayer = append(entryLayer, byte(g.metaIdx))
		entryLayer = binary.AppendUvarint(entryLayer, uint64(g.count))
		entryLayer = binary.AppendUvarint(entryLayer, uint64(len(shared)))
		entryLayer = append(entryLayer, shared...)
		for j := 0; j < g.count; j++ {
			e := entries[g.first+j]
			rem := e.Key[len(dictP)+len(shared):]
			entryLayer = binary.AppendUvarint(entryLayer, uint64(len(rem)))
			entryLayer = binary.AppendUvarint(entryLayer, uint64(len(e.Value)))
			entryLayer = binary.LittleEndian.AppendUint64(entryLayer, kv.Trailer(e.Seq, e.Kind))
			entryLayer = append(entryLayer, rem...)
			entryLayer = append(entryLayer, e.Value...)
		}
	}

	// Assemble: meta | prefix layer | entry layer.
	meta := []byte{byte(len(dict))}
	for _, d := range dict {
		meta = binary.AppendUvarint(meta, uint64(len(d)))
		meta = append(meta, d...)
	}
	meta = binary.LittleEndian.AppendUint32(meta, uint32(len(groups)))
	m := prefixMeta{numGroups: len(groups)}
	m.layout(len(meta))
	// The slots are written in place into zeroed bytes: the alignment pad,
	// the tail of every line and the tail of a short key's prefix are zeros.
	body := make([]byte, m.entryOff, m.entryOff+len(entryLayer))
	copy(body, meta)
	for gi, g := range groups {
		o := m.slotOff(gi)
		copy(body[o:o+prefixLen], entries[g.first].Key)
		binary.LittleEndian.PutUint32(body[o+prefixLen:], uint32(groupOffs[gi]))
	}
	return append(body, entryLayer...), nil
}

// openPrefixMeta decodes the meta layer, checks the prefix layer and derives
// the line fences from it. count is the header's entry count: a group holds
// between one and groupSize entries, which bounds numGroups from both sides.
func openPrefixMeta(body []byte, groupSize, count int) (*prefixMeta, error) {
	if len(body) < 1 {
		return nil, ErrCorrupt
	}
	m := &prefixMeta{body: body}
	dictCount := int(body[0])
	off := 1
	for i := 0; i < dictCount; i++ {
		l, n := binary.Uvarint(body[off:])
		if n <= 0 || !fits(len(body)-off-n, l, 0) {
			return nil, fmt.Errorf("%w: meta layer", ErrCorrupt)
		}
		off += n
		m.dict = append(m.dict, body[off:off+int(l)])
		off += int(l)
	}
	if off+4 > len(body) {
		return nil, fmt.Errorf("%w: prefix layer header", ErrCorrupt)
	}
	m.numGroups = int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if groupSize < 1 || m.numGroups > count || m.numGroups < ceilDiv(count, groupSize) {
		return nil, fmt.Errorf("%w: %d groups of at most %d cannot hold %d entries", ErrCorrupt, m.numGroups, groupSize, count)
	}
	m.layout(off)
	if m.entryOff > len(body) {
		return nil, fmt.Errorf("%w: prefix layer ends at %d, past the %d-byte body", ErrCorrupt, m.entryOff, len(body))
	}
	// A search trusts the slots to be sorted and to point at groups: check
	// both here, once, or a bad slot becomes a lookup that silently misses.
	m.fences = make([]byte, 0, ceilDiv(m.numGroups, leafFanout)*prefixLen)
	for gi := 0; gi < m.numGroups; gi++ {
		if gi%leafFanout == 0 {
			m.fences = append(m.fences, m.groupPrefix(gi)...)
		}
		if gi > 0 && bytes.Compare(m.groupPrefix(gi-1), m.groupPrefix(gi)) > 0 {
			return nil, fmt.Errorf("%w: prefix of group %d sorts before its predecessor's", ErrCorrupt, gi)
		}
		if o := m.groupEntryOff(gi); o >= len(body)-m.entryOff || gi > 0 && o <= m.groupEntryOff(gi-1) {
			return nil, fmt.Errorf("%w: group %d at entry-layer offset %d", ErrCorrupt, gi, o)
		}
	}
	return m, nil
}

// slotOff returns the body offset of group gi's leaf slot.
func (m *prefixMeta) slotOff(gi int) int {
	return m.leafOff + gi/leafFanout*pmem.LineSize + gi%leafFanout*slotSize
}

// groupPrefix returns the fixed-length prefix of group gi.
func (m *prefixMeta) groupPrefix(gi int) []byte {
	o := m.slotOff(gi)
	return m.body[o : o+prefixLen]
}

// groupEntryOff returns the entry-layer offset of group gi.
func (m *prefixMeta) groupEntryOff(gi int) int {
	return int(binary.LittleEndian.Uint32(m.body[m.slotOff(gi)+prefixLen:]))
}

// fixedPrefix truncates or zero-pads key to prefixLen bytes for comparison
// against the prefix layer.
func fixedPrefix(key []byte) [prefixLen]byte {
	var p [prefixLen]byte
	copy(p[:], key)
	return p
}

// cutCompare orders part against the same-length head of key and returns
// what of key lies behind it. A key shorter than part never compares equal.
func cutCompare(part, key []byte) (rest []byte, c int) {
	if len(key) < len(part) {
		return nil, bytes.Compare(part, key)
	}
	return key[len(part):], bytes.Compare(part, key[:len(part)])
}

// compareHead orders the head every key of the group starts with (dictionary
// prefix + shared prefix) against key's. On 0 the group's keys compare to key
// as their remainders compare to rest; otherwise every one of them compares
// as c does. Nothing is materialised.
func (d *groupDecoder) compareHead(key []byte) (rest []byte, c int) {
	if rest, c = cutCompare(d.dictP, key); c == 0 {
		rest, c = cutCompare(d.shared, rest)
	}
	return rest, c
}

// compareFirstKey orders the full first key of group gi against key, charging
// the one PM access of landing on the group.
func (t *Table) compareFirstKey(gi int, key []byte) (int, error) {
	t.dev.ChargeAccess()
	d, err := t.prefix.decodeGroup(gi)
	if err != nil {
		return 0, err
	}
	rest, c := d.compareHead(key)
	if c != 0 {
		return c, nil
	}
	if !d.more() {
		return 0, fmt.Errorf("%w: group %d is empty", ErrCorrupt, gi)
	}
	rem, _, _, err := d.nextParts()
	return bytes.Compare(rem, rest), err
}

// countBefore reports how many of the n stride-spaced prefixes at p sort
// before target (or, with orEqual, at or before it). They are sorted, so it
// is a binary search; the caller has paid for the bytes — one line already
// fetched, or the fences in DRAM.
func countBefore(p []byte, stride, n int, target []byte, orEqual bool) int {
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		c := bytes.Compare(p[mid*stride:mid*stride+prefixLen], target)
		if c < 0 || (orEqual && c == 0) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// seek reports how many groups have a prefix before target (or, with orEqual,
// at or before it). The fences pick the last line that opens on a qualifying
// prefix — it holds the last qualifying group — without touching PM; that one
// line is fetched and searched.
func (m *prefixMeta) seek(l *lookup, target []byte, orEqual bool) int {
	line := max(countBefore(m.fences, prefixLen, len(m.fences)/prefixLen, target, orEqual)-1, 0)
	off := m.leafOff + line*pmem.LineSize
	l.touch(off)
	n := min(leafFanout, m.numGroups-line*leafFanout)
	return line*leafFanout + countBefore(m.body[off:], slotSize, n, target, orEqual)
}

// findGroup returns the groups [start, end) that can hold key. Group prefixes
// are truncated first keys and versions of a key sort newest-first, so the
// scan starts at the group *before* the first group whose first key is >=
// key; it ends before the first group whose prefix is past key's.
//
// One upper-bound seek finds end and, in the line it read, almost always the
// first group lo carrying key's own truncated prefix as well. Only when that
// line opens on the prefix can the run of it reach back into earlier lines;
// then the previous line is read too, for the slot of group lo-1 that the
// scan needs anyway, and a lower-bound seek follows if the run did start
// earlier. When several groups share the prefix, a binary search on their
// full first keys resolves the start group, so lookups stay logarithmic on
// long-shared-prefix keyspaces; a group that does not decode there is the
// lookup's error.
func (t *Table) findGroup(key []byte) (start, end int, err error) {
	m := t.prefix
	target := fixedPrefix(key)
	l := lookup{dev: t.dev}
	end = m.seek(&l, target[:], true)
	if end == 0 {
		return 0, 0, nil
	}
	lineStart := (end - 1) / leafFanout * leafFanout
	lo := end
	for lo > lineStart && bytes.Equal(m.groupPrefix(lo-1), target[:]) {
		lo--
	}
	if lo == lineStart && lo < end && lo > 0 {
		// The line opens on key's prefix; the slot before it, one line
		// back, says whether the run of that prefix started earlier.
		l.touch(m.slotOff(lo - 1))
		if bytes.Equal(m.groupPrefix(lo-1), target[:]) {
			lo = m.seek(&l, target[:], false)
		}
	}
	start = max(lo-1, 0)
	if end-lo < 2 {
		// At most one group opens on key's prefix: comparing its full first
		// key could only save the scan of group lo-1, and costs as much.
		return start, end, nil
	}
	// First group in [lo, end) whose full first key is >= key; the scan
	// starts one group earlier because the newest versions of key may
	// precede that boundary.
	a, b := lo, end
	for a < b {
		mid := (a + b) / 2
		c, err := t.compareFirstKey(mid, key)
		if err != nil {
			return 0, 0, err
		}
		if c < 0 {
			a = mid + 1
		} else {
			b = mid
		}
	}
	if a > lo {
		start = a - 1
	}
	return start, end, nil
}

// groupDecoder sequentially decodes one group in the entry layer.
type groupDecoder struct {
	m      *prefixMeta
	off    int
	dictP  []byte
	shared []byte
	count  int
	i      int
	keyBuf []byte
}

func (m *prefixMeta) decodeGroup(gi int) (groupDecoder, error) {
	off := m.entryOff + m.groupEntryOff(gi)
	body := m.body
	if off >= len(body) {
		return groupDecoder{}, ErrCorrupt
	}
	d := groupDecoder{m: m}
	mi := int(body[off])
	off++
	if mi >= len(m.dict) {
		return groupDecoder{}, fmt.Errorf("%w: meta index %d", ErrCorrupt, mi)
	}
	d.dictP = m.dict[mi]
	cnt, n := binary.Uvarint(body[off:])
	if n <= 0 {
		return groupDecoder{}, ErrCorrupt
	}
	off += n
	sl, n := binary.Uvarint(body[off:])
	if n <= 0 || !fits(len(body)-off-n, sl, 0) {
		return groupDecoder{}, ErrCorrupt
	}
	off += n
	d.shared = body[off : off+int(sl)]
	off += int(sl)
	d.count = int(cnt)
	d.off = off
	return d, nil
}

// more reports whether the group has entries left to decode.
func (d *groupDecoder) more() bool { return d.i < d.count }

// nextParts decodes the next entry of the group — there must be more —
// without building its key, which is dictP + shared + rem. val aliases the
// table image.
func (d *groupDecoder) nextParts() (rem, val []byte, trailer uint64, err error) {
	body := d.m.body
	remLen, n := binary.Uvarint(body[d.off:])
	valLen, k := binary.Uvarint(body[d.off+max(n, 0):])
	off := d.off + n + k
	if n <= 0 || k <= 0 || !fits(len(body)-off-8, remLen, valLen) {
		return nil, nil, 0, fmt.Errorf("%w: entry at entry-layer offset %d", ErrCorrupt, d.off-d.m.entryOff)
	}
	trailer = binary.LittleEndian.Uint64(body[off:])
	rem = body[off+8 : off+8+int(remLen)]
	val = body[off+8+int(remLen) : off+8+int(remLen)+int(valLen)]
	d.off = off + 8 + int(remLen) + int(valLen)
	d.i++
	return rem, val, trailer, nil
}

// next decodes the next entry in the group — there must be more — its key
// rebuilt in the decoder's buffer.
func (d *groupDecoder) next() (kv.Entry, error) {
	rem, val, trailer, err := d.nextParts()
	if err != nil {
		return kv.Entry{}, err
	}
	d.keyBuf = append(append(append(d.keyBuf[:0], d.dictP...), d.shared...), rem...)
	seq, kind := kv.SplitTrailer(trailer)
	return kv.Entry{Key: d.keyBuf, Value: val, Seq: seq, Kind: kind}, nil
}

// prefixGet performs the paper's lookup: search the prefix layer, then scan
// groups sequentially. Returns the newest version with Seq <= seq; entries
// sort newest-first within a key, so that is the first one visible. Keys are
// compared piece by piece, never rebuilt: the lookup allocates nothing. The
// returned Key is the caller's, the Value a view of the table image.
func (t *Table) prefixGet(key []byte, seq uint64) (kv.Entry, bool, error) {
	start, end, err := t.findGroup(key)
	if err != nil {
		return kv.Entry{}, false, err
	}
	for gi := start; gi < end; gi++ {
		t.dev.ChargeAccess() // one PM access to land on the group
		d, err := t.prefix.decodeGroup(gi)
		if err != nil {
			return kv.Entry{}, false, err
		}
		rest, c := d.compareHead(key)
		if c > 0 {
			return kv.Entry{}, false, nil
		}
		if c < 0 {
			continue // every key of the group sorts before key
		}
		for d.more() {
			rem, val, trailer, err := d.nextParts()
			if err != nil {
				return kv.Entry{}, false, err
			}
			c := bytes.Compare(rem, rest)
			if c > 0 {
				return kv.Entry{}, false, nil
			}
			if s, kind := kv.SplitTrailer(trailer); c == 0 && s <= seq {
				return kv.Entry{Key: key, Value: val, Seq: s, Kind: kind}, true, nil
			}
		}
	}
	return kv.Entry{}, false, nil
}

// prefixIterator walks all groups in order.
type prefixIterator struct {
	t   *Table
	gi  int
	dec groupDecoder // of group gi; the zero decoder is exhausted
	cur kv.Entry
	ok  bool
	err error // the decode failure that stopped the walk, located
}

func (t *Table) newPrefixIterator() kv.Iterator {
	return &prefixIterator{t: t, gi: -1}
}

func (it *prefixIterator) SeekToFirst() { it.seekGroup(0) }

// seekGroup positions the iterator on the first entry of group gi.
func (it *prefixIterator) seekGroup(gi int) {
	it.gi, it.err = gi-1, nil
	it.dec.count = 0
	it.advance()
}

// fail stops the walk on a group that does not decode.
func (it *prefixIterator) fail(err error) {
	it.ok, it.err = false, wrapCorrupt(it.t.addr, it.t.size, err)
}

// enter lands on group gi, charging its one PM access. The decoder keeps
// the previous group's key buffer.
func (it *prefixIterator) enter(gi int) bool {
	it.t.dev.ChargeAccess()
	d, err := it.t.prefix.decodeGroup(gi)
	if err != nil {
		it.fail(err)
		return false
	}
	d.keyBuf = it.dec.keyBuf
	it.gi, it.dec = gi, d
	return true
}

func (it *prefixIterator) advance() {
	for !it.dec.more() {
		if it.gi+1 >= it.t.prefix.numGroups {
			it.gi, it.ok = it.t.prefix.numGroups, false
			return
		}
		if !it.enter(it.gi + 1) {
			return
		}
	}
	e, err := it.dec.next()
	if err != nil {
		it.fail(err)
		return
	}
	it.cur, it.ok = e, true
}

func (it *prefixIterator) Valid() bool     { return it.ok }
func (it *prefixIterator) Next()           { it.advance() }
func (it *prefixIterator) Entry() kv.Entry { return it.cur }
func (it *prefixIterator) Err() error      { return it.err }

// posGroupShift packs a group index above the in-group entry index in Pos
// tokens; groups hold far fewer than 2^20 entries.
const posGroupShift = 20

// Pos implements kv.PosIterator: (group, entry-within-group).
func (it *prefixIterator) Pos() uint64 {
	if !it.ok {
		return kv.PosEOF
	}
	return uint64(it.gi)<<posGroupShift | uint64(it.dec.i-1)
}

// SetPos implements kv.PosIterator. Groups are sequentially decoded, so the
// restore replays the group from its start — groups are small (≤ GroupSize
// entries), so this stays O(1) with a modest constant.
func (it *prefixIterator) SetPos(pos uint64) {
	it.ok, it.err = false, nil
	if pos == kv.PosEOF {
		return
	}
	gi := int(pos >> posGroupShift)
	idx := int(pos & (1<<posGroupShift - 1))
	if gi >= it.t.prefix.numGroups || !it.enter(gi) {
		return
	}
	for i := 0; i <= idx && it.dec.more(); i++ {
		e, err := it.dec.next()
		if err != nil {
			it.fail(err)
			return
		}
		it.cur, it.ok = e, i == idx
	}
}

func (it *prefixIterator) SeekGE(key []byte) {
	start, _, err := it.t.findGroup(key)
	if err != nil {
		it.fail(err)
		return
	}
	it.seekGroup(start)
	for it.ok && bytes.Compare(it.cur.Key, key) < 0 {
		it.advance()
	}
}
