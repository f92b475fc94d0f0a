// Package sstable implements the on-SSD sorted table used by level-1 and
// below (and by the RocksDB-emulation baseline): 4 KiB data blocks with
// restart-point key prefix compression, an index block mapping separator keys
// to block handles, a Bloom filter, and a footer. A shared LRU block cache
// gives the "SSTable in cache" behaviour Table I of the paper measures.
package sstable

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
	"sync/atomic"

	"pmblade/internal/bloom"
	"pmblade/internal/compress"
	"pmblade/internal/device"
	"pmblade/internal/kv"
	"pmblade/internal/ssd"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a malformed table.
var ErrCorrupt = errors.New("sstable: corrupt table")

// corrupt locates a corruption in file: the byte range of the failing block or
// structure and what check failed. Reads and scrubs return it so corruption
// reports are actionable (quarantine needs the file; repair needs the block).
func corrupt(file ssd.FileID, off, n int64, detail string) *device.CorruptionError {
	return &device.CorruptionError{Kind: ErrCorrupt, Class: device.SSD, ID: uint64(file), Off: off, Len: n, Detail: detail}
}

// corruptAt wraps a bare ErrCorrupt from a block decode with the block's
// location. Errors that are not corruption (device I/O) and errors already
// carrying a location pass through unchanged.
func corruptAt(file ssd.FileID, h blockHandle, err error) error {
	return corrupt(file, h.off, h.len, "block structure").Locate(err)
}

const (
	// BlockSize is the target uncompressed size of a data block.
	BlockSize = 4096
	// restartInterval is the number of entries between restart points.
	restartInterval = 16
	footerSize      = 8*6 + 4    // index, filter, props (off/len each), magic
	tableMagic      = 0x53535442 // "SSTB"

	// Block flag bytes.
	blockRaw        = 0
	blockCompressed = 1
)

// blockHandle locates a block within the file.
type blockHandle struct {
	off, len int64
}

// WriteSink performs the builder's device appends. The default sink appends
// each chunk inline; compaction supplies a sink that batches chunks into a
// write buffer and routes its flushes (S3 stages) through the scheduler —
// possibly asynchronously, as long as appends to the file stay ordered and
// Barrier blocks until everything issued has landed.
type WriteSink interface {
	// Bind tells the sink where appends go; the builder calls it once.
	Bind(dev *ssd.Device, file FileAlias, cause device.Cause)
	// Append schedules an ordered append of p; the sink takes ownership.
	Append(p []byte)
	// Barrier flushes buffered data and blocks until every append has run,
	// reporting the first device error.
	Barrier() error
}

// FileAlias re-exports the device file id for sink implementations.
type FileAlias = ssd.FileID

// directSink appends immediately.
type directSink struct {
	dev   *ssd.Device
	file  ssd.FileID
	cause device.Cause
	err   error
}

func (s *directSink) Bind(dev *ssd.Device, file FileAlias, cause device.Cause) {
	s.dev, s.file, s.cause = dev, file, cause
}

func (s *directSink) Append(p []byte) {
	if s.err != nil {
		return
	}
	if _, err := s.dev.Append(s.file, p, s.cause); err != nil {
		s.err = err
	}
}

func (s *directSink) Barrier() error { return s.err }

// Builder writes an SSTable to an SSD file. Entries must be added in
// kv.Compare order.
type Builder struct {
	dev   *ssd.Device
	file  ssd.FileID
	cause device.Cause
	sink  WriteSink
	off   int64 // logical file offset (tracked so appends may be async)

	block      []byte
	restarts   []uint32
	nInBlock   int
	lastKey    []byte
	blockFirst []byte

	index    []byte // index block under construction
	keys     [][]byte
	count    int
	smallest []byte
	largest  []byte
	written  int64
	closed   bool

	compression bool
}

// EnableCompression turns on LZ block compression (RocksDB compresses data
// blocks with snappy by default); must be called before the first Add.
func (b *Builder) EnableCompression() { b.compression = true }

// NewBuilder starts a table in a fresh file on dev; writes are attributed to
// cause (flush for minor compaction in the baseline, major for L0→L1, ...).
func NewBuilder(dev *ssd.Device, cause device.Cause) *Builder {
	return NewBuilderWithSink(dev, cause, &directSink{})
}

// NewBuilderWithSink starts a builder whose device appends go through sink.
func NewBuilderWithSink(dev *ssd.Device, cause device.Cause, sink WriteSink) *Builder {
	b := &Builder{dev: dev, file: dev.Create(), cause: cause, sink: sink}
	sink.Bind(dev, b.file, cause)
	return b
}

// appendViaSink schedules one ordered device append of p and returns the
// logical offset it will land at. p must not be mutated afterwards.
func (b *Builder) appendViaSink(p []byte) int64 {
	off := b.off
	b.off += int64(len(p))
	b.sink.Append(p)
	return off
}

// Add appends an entry. It returns an error if the builder is finished or
// entries arrive out of order.
func (b *Builder) Add(e kv.Entry) error {
	if b.closed {
		return errors.New("sstable: builder finished")
	}
	ik := kv.AppendInternalKey(nil, e.Key, e.Seq, e.Kind)
	if b.lastKey != nil && kv.CompareInternalKeys(b.lastKey, ik) >= 0 {
		return fmt.Errorf("sstable: out-of-order add %q after %q", e.Key, b.lastKey)
	}
	if b.smallest == nil {
		b.smallest = append([]byte(nil), e.Key...)
	}
	b.largest = append(b.largest[:0], e.Key...)
	b.keys = append(b.keys, append([]byte(nil), e.Key...))

	// Restart-point prefix compression within the block.
	shared := 0
	if b.nInBlock%restartInterval == 0 {
		b.restarts = append(b.restarts, uint32(len(b.block)))
	} else {
		shared = sharedLen(b.lastKey, ik)
	}
	if b.blockFirst == nil {
		b.blockFirst = append([]byte(nil), e.Key...)
	}
	b.block = binary.AppendUvarint(b.block, uint64(shared))
	b.block = binary.AppendUvarint(b.block, uint64(len(ik)-shared))
	b.block = binary.AppendUvarint(b.block, uint64(len(e.Value)))
	b.block = append(b.block, ik[shared:]...)
	b.block = append(b.block, e.Value...)
	b.lastKey = ik
	b.nInBlock++
	b.count++

	if len(b.block) >= BlockSize {
		return b.finishBlock()
	}
	return nil
}

func sharedLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// finishBlock seals the current data block, writes it, and adds an index
// entry mapping the block's last key to its handle. On-device layout:
// flag byte (0 raw, 1 LZ-compressed) | payload | crc32 over flag+payload.
func (b *Builder) finishBlock() error {
	if b.nInBlock == 0 {
		return nil
	}
	// Trailer: restart offsets + count.
	for _, r := range b.restarts {
		b.block = binary.LittleEndian.AppendUint32(b.block, r)
	}
	b.block = binary.LittleEndian.AppendUint32(b.block, uint32(len(b.restarts)))

	blk := make([]byte, 1, len(b.block)+8)
	blk[0] = blockRaw
	if b.compression {
		blk = compress.Compress(blk, b.block)
		if len(blk)-1 < len(b.block) {
			blk[0] = blockCompressed
		} else {
			blk = append(blk[:1], b.block...)
		}
	} else {
		blk = append(blk, b.block...)
	}
	blk = binary.LittleEndian.AppendUint32(blk, crc32.Checksum(blk[:len(blk)], castagnoli))
	off := b.appendViaSink(blk)
	// Index entry: lastInternalKey | handle.
	b.index = binary.AppendUvarint(b.index, uint64(len(b.lastKey)))
	b.index = append(b.index, b.lastKey...)
	b.index = binary.AppendUvarint(b.index, uint64(off))
	b.index = binary.AppendUvarint(b.index, uint64(len(blk)))

	b.written += int64(len(blk))
	b.block = b.block[:0]
	b.restarts = b.restarts[:0]
	b.nInBlock = 0
	b.blockFirst = nil
	b.lastKey = nil
	return nil
}

// Finish seals the table and returns its immutable reader.
func (b *Builder) Finish() (*Table, error) {
	if b.closed {
		return nil, errors.New("sstable: already finished")
	}
	b.closed = true
	if b.count == 0 {
		b.dev.Delete(b.file)
		return nil, errors.New("sstable: empty table")
	}
	if err := b.finishBlock(); err != nil {
		return nil, err
	}
	idxOff := b.appendViaSink(b.index)
	filter := bloom.New(b.keys, 10)
	fEnc := filter.Encode()
	fOff := b.appendViaSink(fEnc)
	// Properties: entry count and key bounds, so Open need not scan blocks.
	var props []byte
	props = binary.LittleEndian.AppendUint64(props, uint64(b.count))
	props = binary.AppendUvarint(props, uint64(len(b.smallest)))
	props = append(props, b.smallest...)
	props = binary.AppendUvarint(props, uint64(len(b.largest)))
	props = append(props, b.largest...)
	pOff := b.appendViaSink(props)
	var footer []byte
	footer = binary.LittleEndian.AppendUint64(footer, uint64(idxOff))
	footer = binary.LittleEndian.AppendUint64(footer, uint64(len(b.index)))
	footer = binary.LittleEndian.AppendUint64(footer, uint64(fOff))
	footer = binary.LittleEndian.AppendUint64(footer, uint64(len(fEnc)))
	footer = binary.LittleEndian.AppendUint64(footer, uint64(pOff))
	footer = binary.LittleEndian.AppendUint64(footer, uint64(len(props)))
	footer = binary.LittleEndian.AppendUint32(footer, tableMagic)
	b.appendViaSink(footer)
	if err := b.sink.Barrier(); err != nil {
		b.dev.Delete(b.file)
		return nil, err
	}
	if err := b.dev.Sync(b.file); err != nil {
		b.dev.Delete(b.file)
		return nil, err
	}
	t, err := Open(b.dev, b.file, nil)
	if err != nil {
		b.dev.Delete(b.file)
	}
	return t, err
}

// Abandon discards a partially built table.
func (b *Builder) Abandon() {
	b.closed = true
	b.dev.Delete(b.file)
}

// indexEntry is one decoded index-block record.
type indexEntry struct {
	lastIK []byte
	handle blockHandle
}

// Table is an immutable reader over a finished SSTable. Tables are
// reference-counted: Open returns a table with one (owner) reference;
// readers that access a table concurrently with compaction take a reference
// via Ref/Unref so the backing file is deleted only after the last reader
// drains.
type Table struct {
	dev    *ssd.Device
	file   ssd.FileID
	index  []indexEntry
	filter *bloom.Filter
	cache  *BlockCache

	smallest []byte
	largest  []byte
	count    int
	size     int64

	refs atomic.Int32
}

// Ref takes a reference, keeping the backing file alive.
func (t *Table) Ref() { t.refs.Add(1) }

// AttachCache points the table at a shared block cache (nil leaves it
// uncached). Builder.Finish cannot know the engine's cache, so the engine
// attaches it here before publishing a freshly built table to readers; it
// must not be called on a table already visible to other goroutines.
func (t *Table) AttachCache(c *BlockCache) { t.cache = c }

// DropCached evicts the table's blocks from its cache, if it has one: for a
// table that has left the live set and will not be read through again.
func (t *Table) DropCached() {
	if t.cache != nil {
		t.cache.DropFile(t.file)
	}
}

// Unref drops a reference; the last drop deletes the backing file and its
// cached blocks.
func (t *Table) Unref() {
	if t.refs.Add(-1) == 0 {
		t.DropCached()
		t.dev.Delete(t.file)
	}
}

// Open reads the footer, index and filter of a finished table. cache may be
// nil (no caching).
func Open(dev *ssd.Device, file ssd.FileID, cache *BlockCache) (*Table, error) {
	size := dev.Size(file)
	if size < footerSize {
		return nil, corrupt(file, 0, size, fmt.Sprintf("file too small (%d bytes)", size))
	}
	footer := make([]byte, footerSize)
	if err := dev.ReadAt(file, size-footerSize, footer, device.CauseClientRead); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(footer[48:]) != tableMagic {
		return nil, corrupt(file, size-footerSize, footerSize, "bad magic")
	}
	idxOff := int64(binary.LittleEndian.Uint64(footer[0:8]))
	idxLen := int64(binary.LittleEndian.Uint64(footer[8:16]))
	fOff := int64(binary.LittleEndian.Uint64(footer[16:24]))
	fLen := int64(binary.LittleEndian.Uint64(footer[24:32]))
	pOff := int64(binary.LittleEndian.Uint64(footer[32:40]))
	pLen := int64(binary.LittleEndian.Uint64(footer[40:48]))
	if idxOff < 0 || idxLen < 0 || fOff < 0 || fLen < 0 || pOff < 0 || pLen < 0 ||
		idxOff+idxLen > size || fOff+fLen > size || pOff+pLen > size {
		return nil, corrupt(file, size-footerSize, footerSize, "bad footer")
	}

	idxRaw := make([]byte, idxLen)
	if err := dev.ReadAt(file, idxOff, idxRaw, device.CauseClientRead); err != nil {
		return nil, err
	}
	t := &Table{dev: dev, file: file, cache: cache, size: size}
	t.refs.Store(1)
	for len(idxRaw) > 0 {
		kl, n := binary.Uvarint(idxRaw)
		if n <= 0 || n+int(kl) > len(idxRaw) {
			return nil, corrupt(file, idxOff, idxLen, "index entry")
		}
		ik := idxRaw[n : n+int(kl)]
		idxRaw = idxRaw[n+int(kl):]
		off, n := binary.Uvarint(idxRaw)
		if n <= 0 {
			return nil, corrupt(file, idxOff, idxLen, "index handle")
		}
		idxRaw = idxRaw[n:]
		blen, n := binary.Uvarint(idxRaw)
		if n <= 0 {
			return nil, corrupt(file, idxOff, idxLen, "index handle len")
		}
		idxRaw = idxRaw[n:]
		t.index = append(t.index, indexEntry{
			lastIK: append([]byte(nil), ik...),
			handle: blockHandle{off: int64(off), len: int64(blen)},
		})
	}
	if len(t.index) == 0 {
		return nil, corrupt(file, idxOff, idxLen, "empty index")
	}

	fRaw := make([]byte, fLen)
	if err := dev.ReadAt(file, fOff, fRaw, device.CauseClientRead); err != nil {
		return nil, err
	}
	t.filter = bloom.Decode(fRaw)

	// Properties: count and bounds without touching data blocks.
	pRaw := make([]byte, pLen)
	if err := dev.ReadAt(file, pOff, pRaw, device.CauseClientRead); err != nil {
		return nil, err
	}
	if len(pRaw) < 8 {
		return nil, corrupt(file, pOff, pLen, "properties")
	}
	t.count = int(binary.LittleEndian.Uint64(pRaw))
	rest := pRaw[8:]
	sl, n := binary.Uvarint(rest)
	if n <= 0 || n+int(sl) > len(rest) {
		return nil, corrupt(file, pOff, pLen, "properties smallest")
	}
	t.smallest = append([]byte(nil), rest[n:n+int(sl)]...)
	rest = rest[n+int(sl):]
	ll, n := binary.Uvarint(rest)
	if n <= 0 || n+int(ll) > len(rest) {
		return nil, corrupt(file, pOff, pLen, "properties largest")
	}
	t.largest = append([]byte(nil), rest[n:n+int(ll)]...)
	return t, nil
}

// File exposes the underlying SSD file.
func (t *Table) File() ssd.FileID { return t.file }

// Smallest returns the smallest user key.
func (t *Table) Smallest() []byte { return t.smallest }

// Largest returns the largest user key.
func (t *Table) Largest() []byte { return t.largest }

// Len reports the number of entries.
func (t *Table) Len() int { return t.count }

// SizeBytes reports the file size.
func (t *Table) SizeBytes() int64 { return t.size }

// Delete releases the owner reference; the file disappears once concurrent
// readers have drained.
func (t *Table) Delete() { t.Unref() }

// DataBytes reports the length of the data-block region — the prefix of the
// file covered by per-block CRCs. The index/filter/properties tail after it
// is integrity-checked structurally at Open, not by checksum.
func (t *Table) DataBytes() int64 {
	last := t.index[len(t.index)-1].handle
	return last.off + last.len
}

// MayContain reports whether key can possibly be present in this table:
// fence bounds first, then the Bloom filter. False means definitely absent —
// the read path uses it to decide whether a miss could have been served by a
// quarantined table.
func (t *Table) MayContain(key []byte) bool {
	if bytes.Compare(key, t.smallest) < 0 || bytes.Compare(key, t.largest) > 0 {
		return false
	}
	return t.filter == nil || t.filter.MayContain(key)
}

// VerifyBlocks is the scrub primitive: it re-reads every data block straight
// from the device — never consulting or filling the block cache, so a stale
// cached copy cannot mask on-media rot and a one-pass integrity walk does not
// evict the working set — and re-checks each block's CRC. It returns one
// CorruptionError per failing block (all of them, not just the first, so a
// multi-rot table attributes every incident). budget, when non-nil, is
// called with each device read's byte count so callers can rate-limit.
// The error result is reserved for device I/O failures.
func (t *Table) VerifyBlocks(cause device.Cause, budget func(n int64)) ([]*device.CorruptionError, error) {
	var bad []*device.CorruptionError
	var raw []byte
	for _, ie := range t.index {
		h := ie.handle
		if int64(cap(raw)) < h.len {
			raw = make([]byte, h.len)
		}
		buf := raw[:h.len]
		if err := t.dev.ReadAt(t.file, h.off, buf, cause); err != nil {
			return bad, err
		}
		if budget != nil {
			budget(h.len)
		}
		if h.len < 5 {
			bad = append(bad, corrupt(t.file, h.off, h.len, "block too short"))
			continue
		}
		body, crcBytes := buf[:h.len-4], buf[h.len-4:]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(crcBytes) {
			bad = append(bad, corrupt(t.file, h.off, h.len, "block crc"))
		}
	}
	return bad, nil
}

// decodeRawBlock verifies and unwraps one on-device block image
// (flag | payload | crc) into its logical body, decompressing if needed.
func decodeRawBlock(raw []byte) ([]byte, error) {
	if len(raw) < 5 {
		return nil, ErrCorrupt
	}
	body, crcBytes := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(crcBytes) {
		return nil, fmt.Errorf("%w: block crc", ErrCorrupt)
	}
	switch body[0] {
	case blockRaw:
		return body[1:], nil
	case blockCompressed:
		return compress.Decompress(nil, body[1:])
	default:
		return nil, fmt.Errorf("%w: block flag %d", ErrCorrupt, body[0])
	}
}

// readBlock fetches a block through the cache if present.
func (t *Table) readBlock(h blockHandle, cause device.Cause) ([]byte, error) {
	if t.cache != nil {
		if blk, ok := t.cache.get(t.file, h.off); ok {
			return blk, nil
		}
	}
	// Zero-copy mapped read: the crc check in decodeRawBlock runs against the
	// at-rest bytes, so later media corruption cannot hide behind this view.
	raw, err := t.dev.MapAt(t.file, h.off, int(h.len), cause)
	if err != nil {
		return nil, err
	}
	body, err := decodeRawBlock(raw)
	if err != nil {
		return nil, corruptAt(t.file, h, err)
	}
	if t.cache != nil {
		t.cache.put(t.file, h.off, body)
	}
	return body, nil
}

// decodeBlockEntries expands a block (without its crc) into entries.
func decodeBlockEntries(body []byte, out []kv.Entry) ([]kv.Entry, error) {
	if len(body) < 4 {
		return nil, ErrCorrupt
	}
	nRestarts := int(binary.LittleEndian.Uint32(body[len(body)-4:]))
	dataEnd := len(body) - 4 - nRestarts*4
	if dataEnd < 0 {
		return nil, ErrCorrupt
	}
	data := body[:dataEnd]
	// Keys are carved from shared slabs rather than allocated one-by-one: a
	// block holds dozens of entries and the per-key allocations dominate scan
	// GC pressure. Slabs are never reset, so carved keys stay valid exactly as
	// long as individually allocated ones would.
	var slab []byte
	var prevIK []byte
	for len(data) > 0 {
		shared, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, ErrCorrupt
		}
		data = data[n:]
		unshared, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, ErrCorrupt
		}
		data = data[n:]
		vlen, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, ErrCorrupt
		}
		data = data[n:]
		if int(shared) > len(prevIK) || int(unshared)+int(vlen) > len(data) {
			return nil, ErrCorrupt
		}
		need := int(shared + unshared)
		if len(slab)+need > cap(slab) {
			n := 1 << 10
			for n < need {
				n <<= 1
			}
			slab = make([]byte, 0, n)
		}
		off := len(slab)
		slab = append(slab, prevIK[:shared]...)
		slab = append(slab, data[:unshared]...)
		ik := slab[off:len(slab):len(slab)]
		data = data[unshared:]
		val := data[:vlen]
		data = data[vlen:]
		key, seq, kind := kv.ParseInternalKey(ik)
		// Value aliases body: entries are only valid while the caller retains
		// the block (iterators hold it until the next block load; consumers
		// that outlive that — dedup, Scan — copy out).
		out = append(out, kv.Entry{Key: key, Value: val, Seq: seq, Kind: kind})
		prevIK = ik
	}
	return out, nil
}

// getScratch holds the per-lookup probe and key-reconstruction buffers so a
// hot Get allocates nothing; instances are pooled across lookups.
type getScratch struct {
	probe []byte
	ik    []byte
}

var scratchPool = sync.Pool{New: func() any { return new(getScratch) }}

// Get returns the newest version of key visible at seq.
//
// The returned Entry's Value aliases cached or freshly decoded block memory:
// it is safe to read concurrently but must be copied before it is retained
// past the public API boundary (the engine copies at DB.Get).
func (t *Table) Get(key []byte, seq uint64) (kv.Entry, bool, error) {
	if bytes.Compare(key, t.smallest) < 0 || bytes.Compare(key, t.largest) > 0 {
		return kv.Entry{}, false, nil
	}
	if t.filter != nil && !t.filter.MayContain(key) {
		return kv.Entry{}, false, nil
	}
	s := scratchPool.Get().(*getScratch)
	defer scratchPool.Put(s)
	s.probe = kv.AppendInternalKey(s.probe[:0], key, seq, kv.KindDelete)
	for bi := t.seekBlock(s.probe); bi < len(t.index); bi++ {
		body, err := t.readBlock(t.index[bi].handle, device.CauseClientRead)
		if err != nil {
			return kv.Entry{}, false, err
		}
		e, status, err := findInBlock(body, key, seq, s)
		if err != nil {
			return kv.Entry{}, false, corruptAt(t.file, t.index[bi].handle, err)
		}
		switch status {
		case foundHit:
			return e, true, nil
		case foundPast:
			return kv.Entry{}, false, nil
		}
		// foundContinue: key range continues in the next block.
	}
	return kv.Entry{}, false, nil
}

// seekBlock returns the first block whose lastIK >= probe — the only block
// that can contain the probe's key (or the block after which the search
// continues).
func (t *Table) seekBlock(probe []byte) int {
	lo, hi := 0, len(t.index)
	for lo < hi {
		mid := (lo + hi) / 2
		if kv.CompareInternalKeys(t.index[mid].lastIK, probe) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// batchProbe tracks one key of a batch lookup through its candidate blocks.
type batchProbe struct {
	t    *Table
	idx  int    // position in the caller's keys slice
	bi   int    // candidate block of t
	body []byte // block bi, once fetched
}

// sameBlock reports whether two probes want the same block.
func (p batchProbe) sameBlock(q batchProbe) bool { return p.t == q.t && p.bi == q.bi }

// locate is the first step of a batch lookup and does no I/O: fence keys,
// then the Bloom filter, then the index seek. It appends a probe for the one
// block of t that can hold the newest version of key visible at seq.
func (t *Table) locate(probes []batchProbe, idx int, key []byte, seq uint64, s *getScratch) []batchProbe {
	if bytes.Compare(key, t.smallest) < 0 || bytes.Compare(key, t.largest) > 0 {
		return probes
	}
	if t.filter != nil && !t.filter.MayContain(key) {
		return probes
	}
	s.probe = kv.AppendInternalKey(s.probe[:0], key, seq, kv.KindDelete)
	if bi := t.seekBlock(s.probe); bi < len(t.index) {
		probes = append(probes, batchProbe{t: t, idx: idx, bi: bi})
	}
	return probes
}

// GetBatch resolves several keys against this table in one pass; see the
// package-level GetBatch, which it is with every key aimed at t.
func (t *Table) GetBatch(keys [][]byte, seq uint64, out []kv.Entry, found []bool) (coalesced int, err error) {
	s := scratchPool.Get().(*getScratch)
	defer scratchPool.Put(s)
	var probes []batchProbe
	for i, key := range keys {
		if !found[i] {
			probes = t.locate(probes, i, key, seq, s)
		}
	}
	return resolve(probes, keys, seq, out, found, s)
}

// GetBatch looks keys[i] up in tables[i] — for a sorted run, the table
// covering the key; nil skips the key; all on one device — in three steps: locate every key's
// candidate block without I/O, fetch all those blocks of all the tables with
// one device batch (cached blocks dropped, duplicates shared, file-adjacent
// misses merged into one read), then search each block for its keys.
//
// out and found are parallel to keys; positions already marked found are
// skipped. Like Get, returned Values alias block memory. It reports how many
// block reads coalescing saved (shared blocks and merged spans). On error
// out and found may hold the keys resolved before it.
func GetBatch(tables []*Table, keys [][]byte, seq uint64, out []kv.Entry, found []bool) (coalesced int, err error) {
	s := scratchPool.Get().(*getScratch)
	defer scratchPool.Put(s)
	var probes []batchProbe
	for i, t := range tables {
		if t != nil && !found[i] {
			probes = t.locate(probes, i, keys[i], seq, s)
		}
	}
	return resolve(probes, keys, seq, out, found, s)
}

// resolve fetches and searches the probes' blocks. A key whose versions run
// past the end of its block (foundContinue) goes round again with the next
// block, so a round's reads are all submitted together and the rare spill
// costs one more round.
func resolve(probes []batchProbe, keys [][]byte, seq uint64, out []kv.Entry, found []bool, s *getScratch) (coalesced int, err error) {
	for len(probes) > 0 {
		saved, ferr := fetchBlocks(probes)
		coalesced += saved
		if ferr != nil {
			return coalesced, ferr
		}
		next := probes[:0]
		for _, p := range probes {
			e, status, ferr := findInBlock(p.body, keys[p.idx], seq, s)
			if ferr != nil {
				return coalesced, corruptAt(p.t.file, p.t.index[p.bi].handle, ferr)
			}
			switch status {
			case foundHit:
				out[p.idx] = e
				found[p.idx] = true
			case foundContinue:
				if p.bi+1 < len(p.t.index) {
					p.bi++
					next = append(next, p)
				}
			}
			// foundPast: key is absent from this table.
		}
		probes = next
	}
	return coalesced, nil
}

// fetchBlocks sorts probes by file and block and gives each its decoded
// block. Cached blocks come from the cache; every other distinct block is
// read once, file-adjacent ones merged into a single span, and all spans are
// booked on the device together (ssd.Device.Submit), so they wait in its
// queue together rather than behind each other. Each span is CRC-verified,
// decoded and cached as its read completes, earliest first, while the later
// reads are still outstanding. All reads have completed when fetchBlocks
// returns, and the error reported is that of the first failing span in
// (file, offset) order, whichever completed first. saved counts the
// per-block reads avoided: duplicate blocks plus span merges.
func fetchBlocks(probes []batchProbe) (saved int, err error) {
	slices.SortFunc(probes, func(a, b batchProbe) int {
		if a.t != b.t {
			return cmp.Compare(a.t.file, b.t.file)
		}
		return cmp.Compare(a.bi, b.bi)
	})
	var spans []blockSpan
	for k, p := range probes {
		if k > 0 && p.sameBlock(probes[k-1]) {
			saved++
			continue // filled in from its predecessor below
		}
		if p.t.cache != nil {
			if blk, ok := p.t.cache.get(p.t.file, p.t.index[p.bi].handle.off); ok {
				probes[k].body = blk
				continue
			}
		}
		if n := len(spans); n > 0 && probes[spans[n-1].at].t == p.t && spans[n-1].last+1 == p.bi {
			spans[n-1].last = p.bi
			saved++
			continue
		}
		spans = append(spans, blockSpan{at: k, first: p.bi, last: p.bi})
	}
	if len(spans) > 0 {
		reqs := make([]ssd.MapReq, len(spans))
		for i, sp := range spans {
			t := probes[sp.at].t
			lo, hi := t.index[sp.first].handle, t.index[sp.last].handle
			reqs[i] = ssd.MapReq{File: t.file, Off: lo.off, Len: int(hi.off + hi.len - lo.off)}
		}
		failed := len(spans) // the first failing span so far, in request order
		batch := probes[0].t.dev.Submit(reqs, device.CauseClientRead)
		for i := batch.Next(); i >= 0; i = batch.Next() {
			if i > failed {
				continue // its error, if any, would not be the one reported
			}
			if ferr := spans[i].fill(probes, &reqs[i]); ferr != nil {
				failed, err = i, ferr
			}
		}
		if err != nil {
			return saved, err
		}
	}
	for k := 1; k < len(probes); k++ {
		if probes[k].sameBlock(probes[k-1]) {
			probes[k].body = probes[k-1].body
		}
	}
	return saved, nil
}

// blockSpan is one device read of fetchBlocks: the cache-missing blocks
// first..last of one table, wanted by the sorted probes starting at position
// at.
type blockSpan struct{ at, first, last int }

// fill verifies, decodes and caches each block of the completed read r and
// hands it to the first probe that wants it; duplicates of a block are
// filled from it afterwards.
func (sp blockSpan) fill(probes []batchProbe, r *ssd.MapReq) error {
	if r.Err != nil {
		return r.Err
	}
	t, k := probes[sp.at].t, sp.at
	for bi := sp.first; bi <= sp.last; bi++ {
		h := t.index[bi].handle
		body, err := decodeRawBlock(r.Data[h.off-r.Off:][:h.len])
		if err != nil {
			return corruptAt(t.file, h, err)
		}
		if t.cache != nil {
			t.cache.put(t.file, h.off, body)
		}
		for probes[k].bi != bi {
			k++ // duplicates of the previous block
		}
		probes[k].body = body
	}
	return nil
}

// findStatus reports the outcome of an in-block search.
type findStatus int

const (
	foundHit      findStatus = iota // entry located
	foundPast                       // a key greater than the target was seen
	foundContinue                   // block ended at or below the target key
)

// findInBlock binary-searches the block's restart points, then decodes
// forward from the chosen restart — the RocksDB lookup path, which avoids
// materializing the whole block. s provides reusable probe/key buffers; on a
// hit the Entry's Key is freshly allocated (the reconstruction buffer is
// pooled) but its Value aliases body.
func findInBlock(body []byte, key []byte, seq uint64, s *getScratch) (kv.Entry, findStatus, error) {
	if len(body) < 4 {
		return kv.Entry{}, foundPast, ErrCorrupt
	}
	nRestarts := int(binary.LittleEndian.Uint32(body[len(body)-4:]))
	dataEnd := len(body) - 4 - nRestarts*4
	if dataEnd < 0 || nRestarts == 0 {
		return kv.Entry{}, foundPast, ErrCorrupt
	}
	restartOf := func(i int) int {
		return int(binary.LittleEndian.Uint32(body[dataEnd+4*i:]))
	}
	// Restart entries have shared=0, so their full internal key is inline:
	// skip shared/unshared/vlen varints, read unshared bytes.
	keyAtRestart := func(off int) ([]byte, error) {
		p := body[off:dataEnd]
		_, n1 := binary.Uvarint(p) // shared == 0
		if n1 <= 0 {
			return nil, ErrCorrupt
		}
		unshared, n2 := binary.Uvarint(p[n1:])
		if n2 <= 0 {
			return nil, ErrCorrupt
		}
		_, n3 := binary.Uvarint(p[n1+n2:])
		if n3 <= 0 {
			return nil, ErrCorrupt
		}
		h := n1 + n2 + n3
		if h+int(unshared) > len(p) {
			return nil, ErrCorrupt
		}
		return p[h : h+int(unshared)], nil
	}
	probe := kv.AppendInternalKey(s.probe[:0], key, seq, kv.KindDelete)
	s.probe = probe
	// Last restart whose key <= probe.
	lo, hi := 0, nRestarts
	for lo < hi {
		mid := (lo + hi) / 2
		rk, err := keyAtRestart(restartOf(mid))
		if err != nil {
			return kv.Entry{}, foundPast, err
		}
		if kv.CompareInternalKeys(rk, probe) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := 0
	if lo > 0 {
		start = restartOf(lo - 1)
	}
	// Linear decode from the restart.
	data := body[start:dataEnd]
	ikBuf := s.ik[:0]
	defer func() { s.ik = ikBuf[:0] }()
	for len(data) > 0 {
		shared, n := binary.Uvarint(data)
		if n <= 0 {
			return kv.Entry{}, foundPast, ErrCorrupt
		}
		data = data[n:]
		unshared, n := binary.Uvarint(data)
		if n <= 0 {
			return kv.Entry{}, foundPast, ErrCorrupt
		}
		data = data[n:]
		vlen, n := binary.Uvarint(data)
		if n <= 0 {
			return kv.Entry{}, foundPast, ErrCorrupt
		}
		data = data[n:]
		if int(shared) > len(ikBuf) || int(unshared)+int(vlen) > len(data) {
			return kv.Entry{}, foundPast, ErrCorrupt
		}
		ikBuf = append(ikBuf[:int(shared)], data[:unshared]...)
		data = data[unshared:]
		val := data[:vlen]
		data = data[vlen:]
		ukey, es, kind := kv.ParseInternalKey(ikBuf)
		c := bytes.Compare(ukey, key)
		if c > 0 {
			return kv.Entry{}, foundPast, nil
		}
		if c == 0 && es <= seq {
			// Key is copied out of the pooled buffer; Value aliases body.
			return kv.Entry{
				Key:   append([]byte(nil), ukey...),
				Value: val,
				Seq:   es,
				Kind:  kind,
			}, foundHit, nil
		}
	}
	return kv.Entry{}, foundContinue, nil
}

// Iterator walks the table in order. Blocks are decoded lazily; compaction
// iterators enable readahead so sequential scans fetch many consecutive
// blocks per device read instead of one.
type Iterator struct {
	t       *Table
	bi      int
	entries []kv.Entry
	ei      int
	err     error

	readahead int    // bytes per device read when scanning (0 = one block)
	hintBytes int    // one-shot cap on the next readahead span (0 = none)
	fillCache bool   // consult and populate the block cache around readahead
	raBuf     []byte // raw bytes covering blocks [raFirst, raLast]
	raFirst   int
	raLast    int
	raOff     int64

	salvage bool // skip (and count) corrupt blocks instead of erroring
	skipped int  // corrupt blocks skipped in salvage mode
}

// NewIterator returns an iterator; call SeekToFirst or SeekGE first.
func (t *Table) NewIterator() *Iterator { return &Iterator{t: t, bi: -1, raFirst: -1} }

// NewCompactionIterator returns an iterator with large sequential readahead
// — the S1 read pattern of major compaction. It bypasses the block cache
// entirely (a one-pass bulk read must not pollute it).
func (t *Table) NewCompactionIterator(readaheadBytes int) *Iterator {
	if readaheadBytes < BlockSize {
		readaheadBytes = 256 << 10
	}
	return &Iterator{t: t, bi: -1, raFirst: -1, readahead: readaheadBytes}
}

// NewSalvageIterator returns a compaction-style iterator (sequential
// readahead, cache-bypassing) that yields the entries of every block whose
// CRC still verifies and silently skips blocks that fail to decode, counting
// them in Skipped. Repair uses it to recover what is recoverable from a
// quarantined table: only checksum-verified blocks contribute, so salvage
// can never resurrect rotted bytes as live data.
func (t *Table) NewSalvageIterator() *Iterator {
	return &Iterator{t: t, bi: -1, raFirst: -1, readahead: 256 << 10, salvage: true}
}

// Skipped reports the number of corrupt blocks a salvage iterator dropped.
func (it *Iterator) Skipped() int { return it.skipped }

// ScanReadahead is the per-table readahead window of client range scans:
// large enough to amortize device latency over ~16 blocks, small enough not
// to over-read short scans.
const ScanReadahead = 64 << 10

// NewScanIterator returns an iterator tuned for client range scans: blocks
// already cached are served from the block cache, and misses fetch a
// readahead span with one device read, populating the cache so repeated
// scans over the same range run memory-speed.
func (t *Table) NewScanIterator() *Iterator {
	return &Iterator{t: t, bi: -1, raFirst: -1, readahead: ScanReadahead, fillCache: t.cache != nil}
}

// Err implements kv.Iterator: the first I/O or corruption error the iterator
// hit since it was last seeked — a *device.CorruptionError naming the file and block
// when the bytes were at fault. A salvage iterator reports I/O errors only.
func (it *Iterator) Err() error { return it.err }

// HintEntries caps the next readahead span to roughly n entries' worth of
// bytes (estimated from the table's average entry size). A bounded scan then
// reads only what it will consume instead of a full ScanReadahead window; if
// the scan outlives the hint, later spans revert to the full window. No-op
// without readahead.
func (it *Iterator) HintEntries(n int) {
	if it.readahead == 0 || n <= 0 || it.t.count == 0 {
		return
	}
	avg := int(it.t.size) / it.t.count
	it.hintBytes = n*avg + BlockSize
}

// Prefetch performs the next sequential device read (S1) so that subsequent
// Next calls decode from memory. It is a no-op without readahead or when the
// buffer already covers upcoming blocks.
func (it *Iterator) Prefetch() {
	if it.readahead == 0 || it.err != nil {
		return
	}
	next := it.bi + 1
	if it.raFirst >= 0 && next <= it.raLast {
		return // upcoming blocks already buffered
	}
	if next < 0 {
		next = 0
	}
	if next >= len(it.t.index) {
		return
	}
	if _, err := it.rawBlock(next); err != nil {
		it.err = err
	}
}

// rawBlock returns the on-device image of block bi, reading ahead when
// enabled.
func (it *Iterator) rawBlock(bi int) ([]byte, error) {
	h := it.t.index[bi].handle
	if it.readahead == 0 {
		return nil, nil // caller uses readBlock
	}
	if it.raFirst >= 0 && bi >= it.raFirst && bi <= it.raLast {
		off := h.off - it.raOff
		return it.raBuf[off : off+h.len], nil
	}
	// Read a span of consecutive blocks starting at bi totalling up to
	// readahead bytes — less when a one-shot hint says the scan is bounded.
	budget := int64(it.readahead)
	if it.hintBytes > 0 {
		if b := int64(it.hintBytes); b < budget {
			budget = b
		}
		it.hintBytes = 0
	}
	last := bi
	span := it.t.index[bi].handle.len
	for last+1 < len(it.t.index) {
		nh := it.t.index[last+1].handle
		if span+nh.len > budget {
			break
		}
		span += nh.len
		last++
	}
	// Zero-copy mapped span: per-block crc checks at decode time verify the
	// at-rest bytes, same as a copied read would.
	buf, err := it.t.dev.MapAt(it.t.file, h.off, int(span), device.CauseClientRead)
	if err != nil {
		return nil, err
	}
	it.raBuf, it.raFirst, it.raLast, it.raOff = buf, bi, last, h.off
	return buf[:h.len], nil
}

func (it *Iterator) loadBlock(bi int) bool {
	for ; bi < len(it.t.index); bi++ {
		var body []byte
		var err error
		switch {
		case it.fillCache:
			h := it.t.index[bi].handle
			if cached, ok := it.t.cache.get(it.t.file, h.off); ok {
				body = cached
			} else {
				var raw []byte
				raw, err = it.rawBlock(bi)
				if err == nil {
					body, err = decodeRawBlock(raw)
					if err == nil {
						it.t.cache.put(it.t.file, h.off, body)
					}
				}
			}
		case it.readahead > 0:
			var raw []byte
			raw, err = it.rawBlock(bi)
			if err == nil {
				body, err = decodeRawBlock(raw)
			}
		default:
			body, err = it.t.readBlock(it.t.index[bi].handle, device.CauseClientRead)
		}
		if err == nil {
			if it.entries == nil && len(it.t.index) > 0 {
				// Presize to the table's average block population: the first
				// decode otherwise regrows the slice log2(n) times per scan.
				it.entries = make([]kv.Entry, 0, it.t.count/len(it.t.index)+4)
			}
			it.entries, err = decodeBlockEntries(body, it.entries[:0])
		}
		if err != nil {
			// Salvage mode drops corrupt blocks (counting them) and keeps
			// going; device I/O errors always stop the iterator.
			if it.salvage && errors.Is(err, ErrCorrupt) {
				it.skipped++
				continue
			}
			it.err = corruptAt(it.t.file, it.t.index[bi].handle, err)
			return false
		}
		it.bi = bi
		it.ei = 0
		return true
	}
	return false // ran off the end (salvage skipped the tail)
}

// SeekToFirst implements kv.Iterator.
func (it *Iterator) SeekToFirst() {
	it.err = nil
	if len(it.t.index) == 0 || !it.loadBlock(0) {
		it.entries = nil
	}
}

// Valid implements kv.Iterator.
func (it *Iterator) Valid() bool { return it.ei < len(it.entries) }

// Entry implements kv.Iterator.
func (it *Iterator) Entry() kv.Entry { return it.entries[it.ei] }

// Next implements kv.Iterator.
func (it *Iterator) Next() {
	it.ei++
	if it.ei >= len(it.entries) {
		if it.bi+1 < len(it.t.index) {
			if !it.loadBlock(it.bi + 1) {
				it.entries = nil
			}
		} else {
			it.entries = it.entries[:0]
			it.ei = 0
		}
	}
}

// posEntryBits is the low-bit budget of a Pos token reserved for the entry
// index inside a block; BlockSize (4 KiB) caps real blocks far below 2^20
// entries, so block index and entry index pack without collision.
const posEntryBits = 20

// Pos implements kv.PosIterator: the token packs (block index, entry index).
// Tokens are only meaningful for non-salvage iterators (salvage renumbers
// blocks by skipping corrupt ones).
func (it *Iterator) Pos() uint64 {
	if !it.Valid() {
		return kv.PosEOF
	}
	return uint64(it.bi)<<posEntryBits | uint64(it.ei)
}

// SetPos implements kv.PosIterator, restoring a token captured by Pos from
// any iterator over the same table. When the target block is already decoded
// the restore is free; otherwise it costs the one block load a SeekGE into
// that block would also pay, minus the index binary search.
func (it *Iterator) SetPos(pos uint64) {
	it.err = nil
	if pos == kv.PosEOF {
		it.entries = it.entries[:0]
		it.ei = 0
		return
	}
	bi := int(pos >> posEntryBits)
	ei := int(pos & (1<<posEntryBits - 1))
	if bi == it.bi && ei < len(it.entries) {
		it.ei = ei
		return
	}
	if bi >= len(it.t.index) || !it.loadBlock(bi) {
		it.entries = nil
		it.ei = 0
		return
	}
	if it.bi != bi || ei >= len(it.entries) {
		// Salvage skipping or a foreign token; nothing sane to restore.
		it.entries = nil
		it.ei = 0
		return
	}
	it.ei = ei
}

// SeekGE implements kv.Iterator.
func (it *Iterator) SeekGE(key []byte) {
	it.err = nil
	probe := kv.AppendInternalKey(nil, key, kv.MaxSeq, kv.KindDelete)
	lo, hi := 0, len(it.t.index)
	for lo < hi {
		mid := (lo + hi) / 2
		if kv.CompareInternalKeys(it.t.index[mid].lastIK, probe) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(it.t.index) {
		it.entries = nil
		it.ei = 0
		return
	}
	if !it.loadBlock(lo) {
		it.entries = nil
		return
	}
	for it.ei < len(it.entries) && bytes.Compare(it.entries[it.ei].Key, key) < 0 {
		it.ei++
	}
	if it.ei >= len(it.entries) {
		it.Next()
	}
}
