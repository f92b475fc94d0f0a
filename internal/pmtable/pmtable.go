// Package pmtable implements the PM table — the on-persistent-memory data
// structure that makes up level-0 in PM-Blade — in the four formats the paper
// compares (Section IV-A, Figure 6):
//
//   - FormatPrefix: PM-Blade's three-layer structure. A meta layer holds a
//     dictionary of extracted long key prefixes (e.g. the {tableID} encoding
//     shared by every key of one database table); a prefix layer holds a
//     fixed-length prefix of each group's first key plus the group's offset,
//     nine to a PM line, and a search picks its line from a DRAM copy of
//     every line's first prefix; an entry layer holds groups of 8/16
//     prefix-stripped entries scanned sequentially.
//   - FormatArray: the plain structure from MatrixKV — a metadata array of
//     offsets plus a data array of full entries; every binary-search step
//     reads an offset and then lands on the record it points at.
//   - FormatArraySnappy: the array structure with every entry compressed
//     individually by the LZ block compressor (snappy stand-in).
//   - FormatArraySnappyGroup: the array structure with groups of eight
//     entries compressed together.
//
// Tables are immutable once built. They live in a pmem.Device arena and can
// be reopened from their address after a restart.
//
// All four formats pay the device by one rule (see package pmem): structures
// probed at random — the prefix layer's lines, the offset arrays — cost one
// access per distinct line a lookup touches; landing on an entry group or a
// record costs one access, and the bytes read sequentially from there none.
package pmtable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"pmblade/internal/bloom"
	"pmblade/internal/device"
	"pmblade/internal/kv"
	"pmblade/internal/pmem"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Format selects the physical layout of a PM table.
type Format uint8

// The four formats evaluated in the paper.
const (
	FormatPrefix Format = iota
	FormatArray
	FormatArraySnappy
	FormatArraySnappyGroup
)

// String names the format the way the paper's figures do.
func (f Format) String() string {
	switch f {
	case FormatPrefix:
		return "PM table"
	case FormatArray:
		return "Array-based"
	case FormatArraySnappy:
		return "Array-snappy"
	case FormatArraySnappyGroup:
		return "Array-snappy-group"
	default:
		return fmt.Sprintf("Format(%d)", uint8(f))
	}
}

const (
	magic = 0x504d5442 // "PMTB"
	// layoutVersion is the image layout this package writes and the only one
	// Open accepts; version 1 stored a search tree above the prefix layer.
	layoutVersion = 2
	// DefaultGroupSize is the number of entries per group in the prefix and
	// group-compressed formats (the paper uses eight or sixteen).
	DefaultGroupSize = 8
	// prefixLen is the fixed length P of prefix-layer keys; fixed size makes
	// the search stride constant (Section IV-A).
	prefixLen = 24
	// metaPrefixLen is the dictionary granularity of the meta layer: the
	// leading bytes extracted as "superfluous coding information" such as
	// {tableID}. keyenc record/index keys share their first 10 bytes.
	metaPrefixLen = 10
	// filterBitsPerKey sizes the per-table Bloom filter (~1% false positives).
	filterBitsPerKey = 10
)

// ErrCorrupt reports a malformed table image.
var ErrCorrupt = errors.New("pmtable: corrupt table")

// corrupt locates a corruption of the table image at addr. PM tables are
// protected by one whole-image checksum, so unlike SSD tables there is no
// finer-than-table attribution: the region is the image.
func corrupt(addr pmem.Addr, size int64, detail string) *device.CorruptionError {
	return &device.CorruptionError{Kind: ErrCorrupt, Class: device.PM, ID: uint64(addr), Len: size, Detail: detail}
}

// Verify re-checks the whole-image checksum of the table at addr without
// decoding anything — the scrub primitive for the PM tier. It returns a
// *device.CorruptionError on mismatch and nil when the image is intact.
func Verify(dev *pmem.Device, addr pmem.Addr) error {
	size := dev.Size(addr)
	if size < 0 {
		return fmt.Errorf("pmtable: unknown region %d", addr)
	}
	if size < encodedHeaderSize+4 {
		return corrupt(addr, size, "image too small")
	}
	img, err := dev.View(addr, 0, size-4, device.CauseScrub)
	if err != nil {
		return err
	}
	crcBytes, err := dev.View(addr, size-4, 4, device.CauseScrub)
	if err != nil {
		return err
	}
	if crc32.Checksum(img, castagnoli) != binary.LittleEndian.Uint32(crcBytes) {
		return corrupt(addr, size, "image checksum")
	}
	return nil
}

// Verify re-checks this table's at-rest image checksum (see Verify).
func (t *Table) Verify() error { return Verify(t.dev, t.addr) }

// wrapCorrupt attaches the region location to a bare ErrCorrupt; other
// errors, and errors already located, pass through unchanged.
func wrapCorrupt(addr pmem.Addr, size int64, err error) error {
	return corrupt(addr, size, "image structure").Locate(err)
}

// Table is an immutable PM-resident sorted (or flush-ordered) table.
type Table struct {
	dev    *pmem.Device
	addr   pmem.Addr
	format Format
	count  int
	size   int64

	smallest []byte
	largest  []byte
	filter   *bloom.Filter

	// Format-specific decoded metadata (kept in DRAM, as the paper keeps
	// search metadata cheap; the data itself stays in PM).
	prefix *prefixMeta
	array  *arrayMeta
}

// Addr reports the table's arena address (persisted in the manifest).
func (t *Table) Addr() pmem.Addr { return t.addr }

// Format reports the table's physical layout.
func (t *Table) Format() Format { return t.format }

// Len reports the number of entries (versions).
func (t *Table) Len() int { return t.count }

// SizeBytes reports the table's footprint in PM.
func (t *Table) SizeBytes() int64 { return t.size }

// Smallest returns the smallest user key in the table.
func (t *Table) Smallest() []byte { return t.smallest }

// Largest returns the largest user key in the table.
func (t *Table) Largest() []byte { return t.largest }

// MayContain reports whether key is possibly present. False means definitely
// absent; readers use it to skip probing the table entirely. A table without
// a filter always reports true.
func (t *Table) MayContain(key []byte) bool {
	if t.filter == nil {
		return true
	}
	return t.filter.MayContain(key)
}

// Release returns the table's space to the arena free accounting.
func (t *Table) Release() { t.dev.Release(t.addr) }

// header layout:
//
//	magic u32 | format u8 | layoutVersion u8 | count u32 | groupSize u32 |
//	smallestLen u32 + largestLen u32 + filterLen u32 (trailer sections)
//
// The encoded image is: header | body | smallest | largest | filter, with
// the trailer lengths in the header so Open can find each section.
type header struct {
	format    Format
	count     uint32
	groupSize uint32
	smallLen  uint32
	largeLen  uint32
	filterLen uint32
}

func encodeHeader(dst []byte, h header) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, magic)
	dst = append(dst, byte(h.format), layoutVersion)
	dst = binary.LittleEndian.AppendUint32(dst, h.count)
	dst = binary.LittleEndian.AppendUint32(dst, h.groupSize)
	dst = binary.LittleEndian.AppendUint32(dst, h.smallLen)
	dst = binary.LittleEndian.AppendUint32(dst, h.largeLen)
	return binary.LittleEndian.AppendUint32(dst, h.filterLen)
}

const encodedHeaderSize = 4 + 2 + 4 + 4 + 4 + 4 + 4

func decodeHeader(p []byte) (header, error) {
	if len(p) < encodedHeaderSize {
		return header{}, ErrCorrupt
	}
	if binary.LittleEndian.Uint32(p[0:4]) != magic {
		return header{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if p[5] != layoutVersion {
		return header{}, fmt.Errorf("%w: unknown layout version %d", ErrCorrupt, p[5])
	}
	return header{
		format:    Format(p[4]),
		count:     binary.LittleEndian.Uint32(p[6:10]),
		groupSize: binary.LittleEndian.Uint32(p[10:14]),
		smallLen:  binary.LittleEndian.Uint32(p[14:18]),
		largeLen:  binary.LittleEndian.Uint32(p[18:22]),
		filterLen: binary.LittleEndian.Uint32(p[22:26]),
	}, nil
}

// BuildResult reports what a build produced, for the experiment harness.
type BuildResult struct {
	Table *Table
	// RawBytes is the uncompressed payload size (keys+values+trailers).
	RawBytes int64
	// EncodedBytes is the bytes actually written to PM.
	EncodedBytes int64
}

// Build encodes entries (which must be sorted in kv.Compare order) into a new
// table on dev using the given format, charging the write to cause.
func Build(dev *pmem.Device, entries []kv.Entry, format Format, groupSize int, cause device.Cause) (BuildResult, error) {
	if len(entries) == 0 {
		return BuildResult{}, errors.New("pmtable: empty build")
	}
	if groupSize <= 0 {
		groupSize = DefaultGroupSize
	}
	var body []byte
	var err error
	switch format {
	case FormatPrefix:
		body, err = buildPrefixBody(entries, groupSize)
	case FormatArray:
		body, err = buildArrayBody(entries)
	case FormatArraySnappy:
		body, err = buildSnappyBody(entries)
	case FormatArraySnappyGroup:
		body, err = buildSnappyGroupBody(entries, groupSize)
	default:
		return BuildResult{}, fmt.Errorf("pmtable: unknown format %v", format)
	}
	if err != nil {
		return BuildResult{}, err
	}

	smallest := entries[0].Key
	largest := entries[len(entries)-1].Key
	// A per-table Bloom filter lets level-0 readers skip tables that cannot
	// hold the key; it is persisted with the image and decoded into DRAM on
	// Open, like the rest of the search metadata.
	keys := make([][]byte, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}
	filter := bloom.New(keys, filterBitsPerKey).Encode()
	img := encodeHeader(nil, header{
		format:    format,
		count:     uint32(len(entries)),
		groupSize: uint32(groupSize),
		smallLen:  uint32(len(smallest)),
		largeLen:  uint32(len(largest)),
		filterLen: uint32(len(filter)),
	})
	img = append(img, body...)
	img = append(img, smallest...)
	img = append(img, largest...)
	img = append(img, filter...)
	// Whole-image checksum: Open verifies it so a torn or truncated table is
	// detected during recovery rather than served.
	img = binary.LittleEndian.AppendUint32(img, crc32.Checksum(img, castagnoli))

	addr, err := dev.Alloc(len(img))
	if err != nil {
		return BuildResult{}, err
	}
	if err := dev.WriteAt(addr, 0, img, cause); err != nil {
		dev.Release(addr)
		return BuildResult{}, err
	}
	if err := dev.Flush(); err != nil {
		dev.Release(addr)
		return BuildResult{}, err
	}

	t, err := Open(dev, addr, cause)
	if err != nil {
		dev.Release(addr)
		return BuildResult{}, err
	}
	var raw int64
	for _, e := range entries {
		raw += int64(len(e.Key) + len(e.Value) + 8)
	}
	return BuildResult{Table: t, RawBytes: raw, EncodedBytes: int64(len(img))}, nil
}

// Open reconstructs a table from its arena address (e.g. after restart). Its
// reads of the image count under cause — Build's own, for a table just built.
//
// The whole-image checksum is verified before any byte of the image — header
// included — is decoded: a torn or truncated table written by a crashed
// process must be rejected here, not parsed (the crcbeforeuse analyzer
// enforces this ordering).
func Open(dev *pmem.Device, addr pmem.Addr, cause device.Cause) (*Table, error) {
	size := dev.Size(addr)
	if size < 0 {
		return nil, fmt.Errorf("pmtable: unknown region %d", addr)
	}
	if size < encodedHeaderSize+4 {
		return nil, corrupt(addr, size, "image too small")
	}
	// One view of the whole image: the trailer and the body below are
	// sub-slices of the bytes the checksum covers, so each byte is read once.
	whole, err := dev.View(addr, 0, size, cause)
	if err != nil {
		return nil, err
	}
	img, crcBytes := whole[:size-4:size-4], whole[size-4:]
	if crc32.Checksum(img, castagnoli) != binary.LittleEndian.Uint32(crcBytes) {
		return nil, corrupt(addr, size, "image checksum")
	}
	h, err := decodeHeader(img[:encodedHeaderSize])
	if err != nil {
		return nil, wrapCorrupt(addr, size, err)
	}
	t := &Table{
		dev:    dev,
		addr:   addr,
		format: h.format,
		count:  int(h.count),
		size:   size,
	}
	tail := int64(h.smallLen) + int64(h.largeLen) + int64(h.filterLen)
	bodyLen := size - 4 - int64(encodedHeaderSize) - tail
	if bodyLen < 0 {
		return nil, corrupt(addr, size, "inconsistent trailer lengths")
	}
	mid := encodedHeaderSize + bodyLen
	body, trailer := img[encodedHeaderSize:mid:mid], img[mid:]
	t.smallest = append([]byte(nil), trailer[:h.smallLen]...)
	t.largest = append([]byte(nil), trailer[h.smallLen:h.smallLen+h.largeLen]...)
	if h.filterLen > 0 {
		t.filter = bloom.Decode(trailer[h.smallLen+h.largeLen:])
	}

	switch h.format {
	case FormatPrefix:
		t.prefix, err = openPrefixMeta(body, int(h.groupSize), int(h.count))
	case FormatArray, FormatArraySnappy, FormatArraySnappyGroup:
		t.array, err = openArrayMeta(body, h.format, int(h.groupSize))
	default:
		err = fmt.Errorf("pmtable: unknown format %v", h.format)
	}
	if err != nil {
		return nil, wrapCorrupt(addr, size, err)
	}
	return t, nil
}

// lookup charges the device for the index lines one search touches: one
// access per distinct pmem.LineSize line, because a line fetched once stays
// in the CPU cache for the rest of the lookup. It remembers the last few
// lines only; a search that wanders further pays again, as a small cache
// would make it.
type lookup struct {
	dev  *pmem.Device
	seen [8]int
	n    int
}

// touch fetches the line holding body offset off unless the lookup already
// has it. Regions are line-aligned, so image offsets decide the line.
func (l *lookup) touch(off int) {
	line := (encodedHeaderSize + off) / pmem.LineSize
	for _, s := range l.seen[:min(l.n, len(l.seen))] {
		if s == line {
			return
		}
	}
	l.seen[l.n%len(l.seen)] = line
	l.n++
	l.dev.ChargeAccess()
}

// Get returns the newest version of key visible at snapshot seq. The entry's
// Key is the caller's key; its Value is a view — of the table image or, in
// the compressed formats, of the call's own decompression buffer — valid
// while the caller holds the table, and must be copied to outlive it. A group
// or record that does not decode on the way is a *device.CorruptionError, never a
// miss: the caller must not go on to an older table as if key were absent.
func (t *Table) Get(key []byte, seq uint64) (e kv.Entry, ok bool, err error) {
	switch {
	case bytes.Compare(key, t.smallest) < 0 || bytes.Compare(key, t.largest) > 0:
		return kv.Entry{}, false, nil // answered from the fence keys, no access
	case t.format == FormatPrefix:
		e, ok, err = t.prefixGet(key, seq)
	default:
		e, ok, err = t.arrayGet(key, seq)
	}
	if err != nil {
		err = wrapCorrupt(t.addr, t.size, err)
	}
	return e, ok, err
}

// NewIterator walks the table in kv.Compare order.
func (t *Table) NewIterator() kv.Iterator {
	switch t.format {
	case FormatPrefix:
		return t.newPrefixIterator()
	default:
		return t.newArrayIterator()
	}
}
