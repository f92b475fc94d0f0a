// Package kv defines the entry model shared by every tier of the LSM-tree:
// user keys, sequence numbers, tombstones, and the internal-key ordering that
// makes multi-version shadowing work across memtable, PM level-0 and SSD.
package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Kind distinguishes live values from tombstones.
type Kind uint8

// Entry kinds.
const (
	KindSet Kind = iota
	KindDelete
)

// String returns "set" or "del".
func (k Kind) String() string {
	if k == KindDelete {
		return "del"
	}
	return "set"
}

// Entry is one versioned key-value record.
type Entry struct {
	Key   []byte
	Value []byte
	Seq   uint64
	Kind  Kind
}

// Size reports the approximate in-memory footprint of the entry, used for
// memtable and PM-table sizing.
func (e Entry) Size() int { return len(e.Key) + len(e.Value) + 9 }

// String formats the entry for debugging.
func (e Entry) String() string {
	return fmt.Sprintf("%q@%d:%s=%q", e.Key, e.Seq, e.Kind, e.Value)
}

// Clone returns e with Key and Value in buffers of their own: the copy an
// iterator's consumer makes before the next Next or Seek reuses them.
func (e Entry) Clone() Entry {
	e.Key = append([]byte(nil), e.Key...)
	e.Value = append([]byte(nil), e.Value...)
	return e
}

// Compare orders entries by user key ascending, then by sequence number
// descending (newest version first), then tombstones before sets at equal
// sequence (cannot occur in practice but keeps the order total).
func Compare(a, b Entry) int {
	if c := bytes.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	switch {
	case a.Seq > b.Seq:
		return -1
	case a.Seq < b.Seq:
		return 1
	}
	switch {
	case a.Kind == b.Kind:
		return 0
	case a.Kind == KindDelete:
		return -1
	default:
		return 1
	}
}

// MaxSeq is the largest usable sequence number.
const MaxSeq = uint64(1)<<56 - 1

// Trailer packs (seq, kind) into 8 bytes: seq in the upper 56 bits, kind in
// the low 8. Internal keys append the trailer inverted so that a plain
// bytes.Compare over encoded internal keys yields Compare's order.
func Trailer(seq uint64, kind Kind) uint64 { return seq<<8 | uint64(kind) }

// SplitTrailer unpacks a trailer.
func SplitTrailer(t uint64) (seq uint64, kind Kind) {
	return t >> 8, Kind(t & 0xff)
}

// AppendInternalKey encodes key followed by the bitwise-inverted trailer in
// big-endian. Encoded internal keys must be compared with
// CompareInternalKeys — a raw bytes.Compare is wrong when one user key is a
// prefix of another, because the comparison would run into trailer bytes.
func AppendInternalKey(dst []byte, key []byte, seq uint64, kind Kind) []byte {
	dst = append(dst, key...)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], ^Trailer(seq, kind))
	return append(dst, buf[:]...)
}

// CompareInternalKeys orders encoded internal keys consistently with Compare:
// user key ascending, then trailer bytes (inverted seq ⇒ seq descending).
func CompareInternalKeys(a, b []byte) int {
	ua, ta := a[:len(a)-8], a[len(a)-8:]
	ub, tb := b[:len(b)-8], b[len(b)-8:]
	if c := bytes.Compare(ua, ub); c != 0 {
		return c
	}
	return bytes.Compare(ta, tb)
}

// ParseInternalKey splits an encoded internal key back into its parts. It
// panics on keys shorter than the 8-byte trailer, which indicates corruption.
func ParseInternalKey(ik []byte) (key []byte, seq uint64, kind Kind) {
	if len(ik) < 8 {
		panic(fmt.Sprintf("kv: internal key too short: %d bytes", len(ik)))
	}
	n := len(ik) - 8
	t := ^binary.BigEndian.Uint64(ik[n:])
	seq, kind = SplitTrailer(t)
	return ik[:n], seq, kind
}

// Iterator walks entries in Compare order. Implementations are not safe for
// concurrent use.
//
// An iterator that is not Valid is exhausted or has failed, and Err says
// which: every loop that drains one ends with a single Err check, and a
// result gathered from an iterator whose Err is non-nil is short, never
// complete. The error is sticky until the iterator is seeked again. A wrapper
// reports the first error of its inputs and yields nothing past it.
type Iterator interface {
	// Valid reports whether the iterator is positioned at an entry.
	Valid() bool
	// Next advances to the next entry in order.
	Next()
	// Entry returns the current entry. The returned slices are only valid
	// until the next call to Next or Seek.
	Entry() Entry
	// SeekGE positions at the first entry with user key >= key (any version).
	SeekGE(key []byte)
	// SeekToFirst rewinds to the smallest entry.
	SeekToFirst()
	// Err returns the read or corruption error that stopped the iterator,
	// nil if none did.
	Err() error
}

// Seek positions every iterator at the first entry with user key >= lo, a
// nil lo meaning the first entry of all.
func Seek(lo []byte, its ...Iterator) {
	for _, it := range its {
		if lo == nil {
			it.SeekToFirst()
		} else {
			it.SeekGE(lo)
		}
	}
}

// PosEOF is the PosIterator position of an exhausted iterator.
const PosEOF = ^uint64(0)

// PosIterator is an Iterator whose position can be captured as an opaque
// token and later restored in O(1) seeks (no key comparisons). Tokens are
// only meaningful for the same immutable underlying source: Pos taken from
// one iterator may be passed to SetPos on another iterator over the same
// table(s). Tokens over a given source are monotonically increasing in
// iteration order.
type PosIterator interface {
	Iterator
	// Pos returns the token of the current position, or PosEOF when the
	// iterator is exhausted.
	Pos() uint64
	// SetPos restores a position previously returned by Pos. Passing PosEOF
	// leaves the iterator exhausted.
	SetPos(pos uint64)
}

// SliceIterator iterates over an in-memory, already-sorted slice of entries.
type SliceIterator struct {
	entries []Entry
	i       int
}

// NewSliceIterator wraps entries, which must already be in Compare order.
func NewSliceIterator(entries []Entry) *SliceIterator {
	return &SliceIterator{entries: entries}
}

// Valid implements Iterator.
func (it *SliceIterator) Valid() bool { return it.i >= 0 && it.i < len(it.entries) }

// Next implements Iterator.
func (it *SliceIterator) Next() { it.i++ }

// Entry implements Iterator.
func (it *SliceIterator) Entry() Entry { return it.entries[it.i] }

// SeekToFirst implements Iterator.
func (it *SliceIterator) SeekToFirst() { it.i = 0 }

// Err implements Iterator: a slice cannot fail.
func (it *SliceIterator) Err() error { return nil }

// SeekGE implements Iterator.
func (it *SliceIterator) SeekGE(key []byte) {
	lo, hi := 0, len(it.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(it.entries[mid].Key, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	it.i = lo
}
