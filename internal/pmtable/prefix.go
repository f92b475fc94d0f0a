package pmtable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"pmblade/internal/compress"
	"pmblade/internal/kv"
	"pmblade/internal/pmem"
)

// Prefix-format body layout. The region is pmem.LineSize-aligned and the
// body starts encodedHeaderSize bytes into the image; the pad puts the index
// on a line boundary of the image, so every index node is exactly one line.
//
//	meta layer:   dictCount u8 | dict entries: len uvarint + bytes
//	prefix layer: numGroups u32 | zero pad to the next line |
//	              inner levels, root first: nodes of up to innerFanout
//	                P-byte separators, zero padded to one line |
//	              leaf level: nodes of up to leafFanout slots, zero padded
//	                to one line; slot gi, in key order:
//	                  P-byte prefix of group gi's first full key (zero padded)
//	                  entryOff u32 (offset into entry layer)
//	entry layer:  per group:
//	                metaIdx u8 | count uvarint | sharedLen uvarint | shared
//	                per entry: remLen uvarint | valLen uvarint |
//	                           trailer u64 LE | rem | value
//
// Full key = dict[metaIdx] + shared + rem. The dictionary extracts long
// leading prefixes shared by many keys ({tableID} encodings); the per-group
// shared prefix removes what the dictionary missed.
//
// The prefix layer is a static search tree with no stored pointers. The
// leaf level is the sorted array of group prefixes; separator j of the
// level above a level is the first prefix of that level's node j, so node n
// of a level holds the separators of nodes n*innerFanout... of the level
// below. The whole geometry follows from numGroups (layout). A search
// reads one node — one device line — per level.

const (
	slotSize    = prefixLen + 4             // prefix + entryOff u32
	leafFanout  = pmem.LineSize / slotSize  // 9 slots to a line
	innerFanout = pmem.LineSize / prefixLen // 10 separators to a line
)

// indexLevel is one inner level of the prefix layer.
type indexLevel struct {
	off    int // body offset of the level's first node
	seps   int // separators in the level = nodes in the level below
	stride int // groups covered by one separator
}

type prefixMeta struct {
	body      []byte // zero-copy arena view
	dict      [][]byte
	numGroups int
	inner     []indexLevel // root first
	leafOff   int          // offset of the leaf level in body
	entryOff  int          // offset of entry layer in body
}

// layout places the prefix layer of m.numGroups groups from body offset off
// (just past the numGroups field): inner levels root first, then the leaf
// level, then the entry layer. Builder and Open share it.
func (m *prefixMeta) layout(off int) {
	// Levels bottom-up: level k's separators are one per node of the level
	// below, i.e. one per leafFanout*innerFanout^(k-1) groups.
	leaves := ceilDiv(m.numGroups, leafFanout)
	for nodes, stride := leaves, leafFanout; nodes > 1; stride *= innerFanout {
		m.inner = append(m.inner, indexLevel{seps: nodes, stride: stride})
		nodes = ceilDiv(nodes, innerFanout)
	}
	slices.Reverse(m.inner)
	off += -(encodedHeaderSize + off) & (pmem.LineSize - 1)
	for i := range m.inner {
		m.inner[i].off = off
		off += ceilDiv(m.inner[i].seps, innerFanout) * pmem.LineSize
	}
	m.leafOff, m.entryOff = off, off+leaves*pmem.LineSize
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
	// The index is written in place into zeroed bytes: the alignment pad,
	// the tail of every node and the tail of a short key's prefix are zeros.
	body := make([]byte, m.entryOff, m.entryOff+len(entryLayer))
	copy(body, meta)
	for _, lv := range m.inner {
		for j := 0; j < lv.seps; j++ {
			o := lv.off + j/innerFanout*pmem.LineSize + j%innerFanout*prefixLen
			copy(body[o:o+prefixLen], entries[groups[j*lv.stride].first].Key)
		}
	}
	for gi, g := range groups {
		o := m.slotOff(gi)
		copy(body[o:o+prefixLen], entries[g.first].Key)
		binary.LittleEndian.PutUint32(body[o+prefixLen:], uint32(groupOffs[gi]))
	}
	return append(body, entryLayer...), nil
}

// openPrefixMeta decodes the meta layer and the prefix layer's geometry.
// count is the header's entry count: a group holds between one and groupSize
// entries, which bounds numGroups from both sides.
func openPrefixMeta(body []byte, groupSize, count int) (*prefixMeta, error) {
	if len(body) < 1 {
		return nil, ErrCorrupt
	}
	m := &prefixMeta{body: body}
	dictCount := int(body[0])
	off := 1
	for i := 0; i < dictCount; i++ {
		l, n := binary.Uvarint(body[off:])
		if n <= 0 || off+n+int(l) > len(body) {
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

// firstKey reconstructs the full first key of group gi (dictionary prefix +
// shared prefix + first entry remainder) into buf, charging one PM access.
func (t *Table) firstKey(gi int, buf []byte) ([]byte, error) {
	t.dev.ChargeAccess()
	d, err := t.prefix.decodeGroup(gi)
	if err != nil {
		return nil, err
	}
	e, ok := d.next()
	if !ok {
		return nil, ErrCorrupt
	}
	return append(buf[:0], e.Key...), nil
}

// countBefore reports how many of the n stride-spaced prefixes at p sort
// before target (or, with orEqual, at or before it). They are sorted, so it
// is a binary search; all n sit in one line, already fetched.
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

// seek descends the prefix layer and reports how many groups have a prefix
// before target (or, with orEqual, at or before it): at every level it takes
// the last child whose separator qualifies, since that child's subtree holds
// the last qualifying group. One line is fetched per level.
func (m *prefixMeta) seek(l *lookup, target []byte, orEqual bool) int {
	node := 0
	for _, lv := range m.inner {
		off := lv.off + node*pmem.LineSize
		l.touch(off)
		n := min(innerFanout, lv.seps-node*innerFanout)
		node = node*innerFanout + max(countBefore(m.body[off:], prefixLen, n, target, orEqual)-1, 0)
	}
	off := m.leafOff + node*pmem.LineSize
	l.touch(off)
	n := min(leafFanout, m.numGroups-node*leafFanout)
	return node*leafFanout + countBefore(m.body[off:], slotSize, n, target, orEqual)
}

// findGroup returns the groups [start, end) that can hold key. Group prefixes
// are truncated first keys and versions of a key sort newest-first, so the
// scan starts at the group *before* the first group whose first key is >=
// key; it ends before the first group whose prefix is past key's.
//
// One upper-bound descent finds end and, in the leaf line it read, almost
// always the first group lo carrying key's own truncated prefix as well.
// Only when that line opens on the prefix can the run of it reach back into
// earlier lines; then the previous line is read too, for the slot of group
// lo-1 that the scan needs anyway, and a lower-bound descent follows if the
// run did start earlier. When several groups share the prefix, a binary
// search on their full first keys resolves the start group, so lookups stay
// logarithmic on long-shared-prefix keyspaces.
func (t *Table) findGroup(key []byte) (start, end int) {
	m := t.prefix
	target := fixedPrefix(key)
	l := lookup{dev: t.dev}
	end = m.seek(&l, target[:], true)
	if end == 0 {
		return 0, 0
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
		return start, end
	}
	// First group in [lo, end) whose full first key is >= key; the scan
	// starts one group earlier because the newest versions of key may
	// precede that boundary.
	var buf []byte
	a, b := lo, end
	for a < b {
		mid := (a + b) / 2
		fk, err := t.firstKey(mid, buf)
		if err != nil {
			return start, end
		}
		buf = fk
		if bytes.Compare(fk, key) < 0 {
			a = mid + 1
		} else {
			b = mid
		}
	}
	if a > lo {
		start = a - 1
	}
	return start, end
}

// groupDecoder sequentially decodes one group in the entry layer.
type groupDecoder struct {
	m       *prefixMeta
	off     int
	dictP   []byte
	shared  []byte
	count   int
	i       int
	keyBuf  []byte
	lastErr error
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
	if n <= 0 || off+n+int(sl) > len(body) {
		return groupDecoder{}, ErrCorrupt
	}
	off += n
	d.shared = body[off : off+int(sl)]
	off += int(sl)
	d.count = int(cnt)
	d.off = off
	return d, nil
}

// next decodes the next entry in the group; ok is false past the end.
func (d *groupDecoder) next() (e kv.Entry, ok bool) {
	if d.i >= d.count {
		return kv.Entry{}, false
	}
	body := d.m.body
	remLen, n := binary.Uvarint(body[d.off:])
	if n <= 0 {
		d.lastErr = ErrCorrupt
		return kv.Entry{}, false
	}
	d.off += n
	valLen, n := binary.Uvarint(body[d.off:])
	if n <= 0 {
		d.lastErr = ErrCorrupt
		return kv.Entry{}, false
	}
	d.off += n
	if d.off+8+int(remLen)+int(valLen) > len(body) {
		d.lastErr = ErrCorrupt
		return kv.Entry{}, false
	}
	trailer := binary.LittleEndian.Uint64(body[d.off:])
	d.off += 8
	rem := body[d.off : d.off+int(remLen)]
	d.off += int(remLen)
	val := body[d.off : d.off+int(valLen)]
	d.off += int(valLen)
	d.i++

	d.keyBuf = d.keyBuf[:0]
	d.keyBuf = append(d.keyBuf, d.dictP...)
	d.keyBuf = append(d.keyBuf, d.shared...)
	d.keyBuf = append(d.keyBuf, rem...)
	seq, kind := kv.SplitTrailer(trailer)
	return kv.Entry{Key: d.keyBuf, Value: val, Seq: seq, Kind: kind}, true
}

// prefixGet performs the paper's lookup: search the prefix layer, then scan
// groups sequentially. Returns the newest version with Seq <= seq; entries
// sort newest-first within a key, so that is the first one visible. The
// returned Key is the caller's.
func (t *Table) prefixGet(key []byte, seq uint64) (kv.Entry, bool) {
	if bytes.Compare(key, t.smallest) < 0 || bytes.Compare(key, t.largest) > 0 {
		return kv.Entry{}, false
	}
	start, end := t.findGroup(key)
	for gi := start; gi < end; gi++ {
		t.dev.ChargeAccess() // one PM access to land on the group
		d, err := t.prefix.decodeGroup(gi)
		if err != nil {
			return kv.Entry{}, false
		}
		for {
			e, ok := d.next()
			if !ok {
				break
			}
			c := bytes.Compare(e.Key, key)
			if c > 0 {
				return kv.Entry{}, false
			}
			if c == 0 && e.Seq <= seq {
				return kv.Entry{Key: key, Value: append([]byte(nil), e.Value...), Seq: e.Seq, Kind: e.Kind}, true
			}
		}
	}
	return kv.Entry{}, false
}

// prefixIterator walks all groups in order.
type prefixIterator struct {
	t   *Table
	gi  int
	dec groupDecoder // of group gi; the zero decoder is exhausted
	cur kv.Entry
	ok  bool
}

func (t *Table) newPrefixIterator() kv.Iterator {
	return &prefixIterator{t: t, gi: -1}
}

func (it *prefixIterator) SeekToFirst() { it.seekGroup(0) }

// seekGroup positions the iterator on the first entry of group gi.
func (it *prefixIterator) seekGroup(gi int) {
	it.gi = gi - 1
	it.dec.count = 0
	it.advance()
}

// enter lands on group gi, charging its one PM access. The decoder keeps
// the previous group's key buffer.
func (it *prefixIterator) enter(gi int) bool {
	it.t.dev.ChargeAccess()
	d, err := it.t.prefix.decodeGroup(gi)
	if err != nil {
		it.ok = false
		return false
	}
	d.keyBuf = it.dec.keyBuf
	it.gi, it.dec = gi, d
	return true
}

func (it *prefixIterator) advance() {
	for {
		if e, ok := it.dec.next(); ok {
			it.cur, it.ok = e, true
			return
		}
		if it.gi+1 >= it.t.prefix.numGroups {
			it.gi, it.ok = it.t.prefix.numGroups, false
			return
		}
		if !it.enter(it.gi + 1) {
			return
		}
	}
}

func (it *prefixIterator) Valid() bool     { return it.ok }
func (it *prefixIterator) Next()           { it.advance() }
func (it *prefixIterator) Entry() kv.Entry { return it.cur }

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
	if pos == kv.PosEOF {
		it.ok = false
		return
	}
	gi := int(pos >> posGroupShift)
	idx := int(pos & (1<<posGroupShift - 1))
	if gi >= it.t.prefix.numGroups || !it.enter(gi) {
		it.ok = false
		return
	}
	for i := 0; i <= idx; i++ {
		e, ok := it.dec.next()
		if !ok {
			it.ok = false
			return
		}
		it.cur = e
	}
	it.ok = true
}

func (it *prefixIterator) SeekGE(key []byte) {
	start, _ := it.t.findGroup(key)
	it.seekGroup(start)
	for it.ok && bytes.Compare(it.cur.Key, key) < 0 {
		it.advance()
	}
}
