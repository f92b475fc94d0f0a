// Package wal implements the write-ahead log. A log is a chain of SSD files
// and, on an engine with persistent memory, a tail: a fixed PM region that
// holds the log's active segment, so a commit is one PM write and a fence
// instead of an SSD append and sync. When a commit group does not fit what is
// left of the tail, the writer destages it — one append of its records to the
// current file, one sync — and empties it. Records carry a CRC32C checksum and
// a length header on either device; recovery replays the files, oldest first,
// then the tail, and stops cleanly at the first torn or corrupt record, which
// is how crash consistency of the DRAM memtable is guaranteed.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"pmblade/internal/device"
	"pmblade/internal/kv"
	"pmblade/internal/pmem"
	"pmblade/internal/ssd"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("wal: closed")

// A record is crc(4) | payloadLen(4) | payload, the CRC over the payload. A
// payload holds at least a sequence and a kind byte.
const (
	frameSize  = 8
	minPayload = 9
)

// TailBytes is the size of a log tail's PM region.
const TailBytes = 64 << 10

// tailHeader is the size of the header that opens a tail: crc(4) | epoch(8),
// the CRC over the epoch. The epoch is the sequence of the tail's first
// record, 0 when it holds none; records follow the header.
const tailHeader = 12

// emptyTail is the header of a tail that holds nothing.
var emptyTail = encodeTailHeader(make([]byte, tailHeader), 0)

func encodeTailHeader(h []byte, epoch uint64) []byte {
	binary.LittleEndian.PutUint64(h[4:tailHeader], epoch)
	binary.LittleEndian.PutUint32(h[0:4], crc32.Checksum(h[4:tailHeader], castagnoli))
	return h
}

// tailEpoch returns the epoch of the tail image img once its header checksum
// holds; ok is false when it does not (a torn header, or rot).
func tailEpoch(img []byte) (epoch uint64, ok bool) {
	if len(img) < tailHeader || crc32.Checksum(img[4:tailHeader], castagnoli) != binary.LittleEndian.Uint32(img[0:4]) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(img[4:tailHeader]), true
}

// Tail is a log's active segment: a fixed TailBytes region of persistent
// memory, rewritten in place from its start after every destage. One Writer
// owns it at a time — Checkpoint hands it from the retiring writer to the
// fresh one inside a commit turn — and the state below is touched only under
// that writer's mu, so a caller must not reach a tail through a writer that
// has handed it on.
type Tail struct {
	dev  *pmem.Device
	addr pmem.Addr

	img    []byte // DRAM copy of the region's live prefix, header and records; empty when the tail holds none
	sealed bool   // the records are appended to the writer's file, which is not yet synced
	stale  bool   // adopted at a restart: the records are the restarting caller's to re-log until the next Destage
}

// NewTail allocates a log tail on dev. A fresh region holds no valid header,
// which reads as an empty tail.
func NewTail(dev *pmem.Device) (*Tail, error) {
	addr, err := dev.Alloc(TailBytes)
	if err != nil {
		return nil, fmt.Errorf("wal: allocate the log tail: %w", err)
	}
	return &Tail{dev: dev, addr: addr, img: make([]byte, 0, TailBytes)}, nil
}

// OpenTail adopts the tail a log left at addr before a restart. ReplayLog
// reads its records; until the writer that takes it is destaged, they stay in
// place and every group goes to the writer's file, so the caller can re-log
// what it replayed there and install a manifest naming that file before the
// tail is emptied.
func OpenTail(dev *pmem.Device, addr pmem.Addr) (*Tail, error) {
	if n := dev.Size(addr); n != TailBytes {
		return nil, fmt.Errorf("wal: no log tail at PM address %d (region of %d bytes, want %d)", addr, n, TailBytes)
	}
	return &Tail{dev: dev, addr: addr, img: make([]byte, 0, TailBytes), stale: true}, nil
}

// Addr is the tail's PM address, which the manifest records.
func (t *Tail) Addr() pmem.Addr { return t.addr }

// fits reports whether n more record bytes fit the tail.
func (t *Tail) fits(n int) bool {
	return max(len(t.img), tailHeader)+n <= TailBytes
}

// append writes the records of frame — which reserves tailHeader bytes in
// front of them — in one PM write: behind the records the tail holds or, when
// it holds none, from its start under a header whose epoch is the first
// record's sequence. The bytes are durable at the next Flush.
func (t *Tail) append(frame []byte) error {
	off := len(t.img)
	if off == 0 {
		encodeTailHeader(frame, binary.LittleEndian.Uint64(frame[tailHeader+frameSize:]))
	} else {
		frame = frame[tailHeader:]
	}
	if err := t.dev.WriteAt(t.addr, int64(off), frame, device.CauseWAL); err != nil {
		return err
	}
	t.img = append(t.img, frame...)
	return nil
}

// Writer appends entries to a log: to its tail when it has one and a group
// fits there, otherwise to its file. Appends are serialized internally; Sync
// makes everything appended so far durable.
type Writer struct {
	dev  *ssd.Device
	file ssd.FileID
	tail *Tail // nil: every group goes to the file

	mu       sync.Mutex
	buf      []byte // guarded by: mu
	closed   bool   // guarded by: mu
	pmDirty  bool   // records written to the tail since the last Sync; guarded by: mu
	ssdDirty bool   // records appended to the file since the last Sync; guarded by: mu
}

// NewWriter creates a fresh log file on dev, with no tail.
func NewWriter(dev *ssd.Device) *Writer { return NewTailWriter(dev, nil) }

// NewTailWriter creates a fresh log file on dev behind tail, which holds the
// log's active segment (nil for none).
func NewTailWriter(dev *ssd.Device, tail *Tail) *Writer {
	return &Writer{dev: dev, file: dev.Create(), tail: tail}
}

// File exposes the underlying file ID (for recovery and deletion).
func (w *Writer) File() ssd.FileID { return w.file }

// batchKind marks a record whose payload is a whole write batch rather than
// a single entry. It shares the kind byte's position so Replay can tell the
// two record shapes apart; kv.Kind values stay far below it.
const batchKind = 0xFF

// reserve appends n zero bytes to buf, to be filled in once what follows them
// is known.
func reserve(buf []byte, n int) []byte { return append(buf, make([]byte, n)...) }

// sealFrame back-fills the frame at buf[at:] over the payload behind it.
func sealFrame(buf []byte, at int) []byte {
	payload := buf[at+frameSize:]
	binary.LittleEndian.PutUint32(buf[at:], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(buf[at+4:], uint32(len(payload)))
	return buf
}

// appendEntry encodes e as seq(8) | kind(1) | keyLen(uvarint) | key |
// valLen(uvarint) | val.
func appendEntry(buf []byte, e kv.Entry) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, e.Seq)
	buf = append(buf, byte(e.Kind))
	buf = binary.AppendUvarint(buf, uint64(len(e.Key)))
	buf = append(buf, e.Key...)
	buf = binary.AppendUvarint(buf, uint64(len(e.Value)))
	return append(buf, e.Value...)
}

// appendRecord frames one entry as a record, encoding its payload in place
// behind the reserved frame.
func appendRecord(buf []byte, e kv.Entry) []byte {
	at := len(buf)
	return sealFrame(appendEntry(reserve(buf, frameSize), e), at)
}

// appendBatchRecord frames entries as ONE record so the whole batch shares a
// single checksum: recovery either replays all of it or none of it.
// batch payload: seq(8, of the first entry) | batchKind(1) | count(uvarint) |
// count * entry
func appendBatchRecord(buf []byte, entries []kv.Entry) []byte {
	at := len(buf)
	buf = binary.LittleEndian.AppendUint64(reserve(buf, frameSize), entries[0].Seq)
	buf = append(buf, batchKind)
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = appendEntry(buf, e)
	}
	return sealFrame(buf, at)
}

// Append writes entries, one record each, as one device write.
func (w *Writer) Append(entries ...kv.Entry) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	w.buf = reserve(w.buf[:0], tailHeader)
	for _, e := range entries {
		w.buf = appendRecord(w.buf, e)
	}
	_, err := w.write()
	return err
}

// AppendBatches writes several client batches in one device write (the group
// commit of Section IV-D's pipeline). Each batch becomes one atomic record:
// a crash can lose whole batches from the tail but never tear one. Returns
// the number of bytes written.
func (w *Writer) AppendBatches(batches [][]kv.Entry) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	w.buf = reserve(w.buf[:0], tailHeader)
	for _, b := range batches {
		switch len(b) {
		case 0:
		case 1:
			w.buf = appendRecord(w.buf, b[0])
		default:
			w.buf = appendBatchRecord(w.buf, b)
		}
	}
	return w.write()
}

// write logs the records in w.buf, behind its reserved tail header: into the
// tail when they fit what is left of it, after destaging it when they do not,
// and into the file when they do not fit even an empty tail — or when there is
// no tail to take them. Either way the tail's records are older than anything
// in the file after them, so replaying the file and then the tail is log order.
//
//pmblade:holds mu
func (w *Writer) write() (int64, error) {
	recs := w.buf[tailHeader:]
	if len(recs) == 0 {
		return 0, nil
	}
	if t := w.tail; t != nil && !t.stale {
		if t.sealed || !t.fits(len(recs)) {
			if err := w.destage(); err != nil {
				return 0, err
			}
		}
		if t.fits(len(recs)) {
			if err := t.append(w.buf); err != nil {
				return 0, err
			}
			w.pmDirty = true
			return int64(len(recs)), nil
		}
	}
	if _, err := w.dev.Append(w.file, recs, device.CauseWAL); err != nil {
		return 0, err
	}
	w.ssdDirty = true
	return int64(len(recs)), nil
}

// Sync makes everything appended so far durable: a fence for records in the
// tail, a sync for records in the file.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.pmDirty {
		if err := w.tail.dev.Flush(); err != nil {
			return err
		}
		w.pmDirty = false
	}
	if w.ssdDirty {
		if err := w.dev.Sync(w.file); err != nil {
			return err
		}
		w.ssdDirty = false
	}
	return nil
}

// Destage moves the tail's records into the log file — one append, one sync —
// and then persistently empties the tail: an empty header, fenced, before it
// returns, so a restart can never replay records the file already holds once
// the file has retired. An adopted tail (OpenTail) is only emptied: its
// records were re-logged by the restart. A no-op without a tail or with an
// empty one. A destage that failed transiently may be retried: it resumes
// where it stopped. After any other failure the file may end in a torn record, behind
// which replay never reads: the caller must not destage again, and the tail
// keeps the records until a restart re-logs them.
func (w *Writer) Destage() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.tail == nil {
		return nil
	}
	return w.destage()
}

//pmblade:holds mu
func (w *Writer) destage() error {
	t := w.tail
	if len(t.img) == 0 && !t.stale {
		return nil
	}
	if !t.stale && !t.sealed {
		if _, err := w.dev.Append(w.file, t.img[tailHeader:], device.CauseWAL); err != nil {
			return err
		}
		t.sealed = true
	}
	if t.sealed {
		if err := w.dev.Sync(w.file); err != nil {
			return err
		}
		w.ssdDirty = false
	}
	if err := t.dev.WriteAt(t.addr, 0, emptyTail, device.CauseWAL); err != nil {
		return err
	}
	if err := t.dev.Flush(); err != nil {
		return err
	}
	w.pmDirty = false
	t.img, t.sealed, t.stale = t.img[:0], false, false
	return nil
}

// Close marks the writer unusable; the file remains until Delete.
func (w *Writer) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
}

// Delete removes the log file from the device.
func (w *Writer) Delete() { w.dev.Delete(w.file) }

// reader walks the framed records of a log image — a file's bytes or a
// tail's — in order. Replay, ReplayLog, Verify and VerifyTail all read
// through it.
type reader struct {
	raw     []byte
	off     int  // where the next record starts
	corrupt bool // the walk stopped at a record that failed its checksum
}

// frame returns the payload of the record at off and moves past it. It
// returns ok=false at a torn frame — too short for its header, or a length no
// payload fits: the ordinary crash boundary — and at a checksum mismatch.
func (r *reader) frame() (payload []byte, ok bool) {
	buf := r.raw[r.off:]
	if len(buf) < frameSize {
		return nil, false
	}
	crc := binary.LittleEndian.Uint32(buf[0:4])
	plen := int(binary.LittleEndian.Uint32(buf[4:8]))
	if plen < minPayload || frameSize+plen > len(buf) {
		return nil, false
	}
	payload = buf[frameSize : frameSize+plen]
	if crc32.Checksum(payload, castagnoli) != crc {
		r.corrupt = true
		return nil, false
	}
	r.off += frameSize + plen
	return payload, true
}

// record returns the entries of the next intact record, or ok=false where
// frame stops or the payload does not decode.
func (r *reader) record() ([]kv.Entry, bool) {
	p, ok := r.frame()
	if !ok {
		return nil, false
	}
	entries, err := parseRecord(p)
	return entries, err == nil && len(entries) > 0
}

// readFile reads a whole log file.
func readFile(dev *ssd.Device, file ssd.FileID, cause device.Cause) ([]byte, error) {
	size := dev.Size(file)
	if size < 0 {
		return nil, ssd.ErrNotFound
	}
	raw := make([]byte, size)
	if size > 0 {
		if err := dev.ReadAt(file, 0, raw, cause); err != nil {
			return nil, err
		}
	}
	return raw, nil
}

// Verify re-reads a log file and checks every complete record's CRC — the
// scrub primitive for WAL segments pending checkpoint. A short frame at the
// end of the file is NOT an error (that is the ordinary crash boundary
// Replay stops at); a record whose frame is complete but whose payload fails
// its checksum is at-rest rot inside data recovery would otherwise replay.
// Verify returns the byte offset of the first such record, or -1 when the
// log verifies clean. Rot that corrupts the final record's length frame is
// indistinguishable from a torn tail and passes; the WAL scrub is an early
// warning for data still awaiting checkpoint, not a durability gate.
func Verify(dev *ssd.Device, file ssd.FileID) (int64, error) {
	raw, err := readFile(dev, file, device.CauseScrub)
	if err != nil {
		return -1, err
	}
	r := reader{raw: raw}
	for _, ok := r.frame(); ok; _, ok = r.frame() {
	}
	if r.corrupt {
		return int64(r.off), nil
	}
	return -1, nil
}

// VerifyTail re-reads the records the writer's tail holds and checks its
// header and every record through the reader Replay uses. The writer knows
// how many bytes the tail holds, so — unlike in a file — a record that stops
// short of them is rot, not a crash boundary. It returns the offset within the
// tail of the first bad header or record, or -1 when the tail verifies clean
// (or there is none).
func (w *Writer) VerifyTail() (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	t := w.tail
	if t == nil || t.stale || len(t.img) == 0 {
		return -1, nil
	}
	raw := make([]byte, len(t.img))
	if err := t.dev.ReadAt(t.addr, 0, raw, device.CauseScrub); err != nil {
		return -1, err
	}
	if _, ok := tailEpoch(raw); !ok {
		return 0, nil
	}
	r := reader{raw: raw, off: tailHeader}
	for _, ok := r.frame(); ok; _, ok = r.frame() {
	}
	if r.off < len(raw) {
		return int64(r.off), nil
	}
	return -1, nil
}

// Replay reads a log file and invokes fn for each intact record, in append
// order. It stops without error at the first torn or corrupt record (the
// crash boundary) and returns the number of entries replayed.
func Replay(dev *ssd.Device, file ssd.FileID, fn func(kv.Entry) error) (int, error) {
	raw, err := readFile(dev, file, device.CauseWAL)
	if err != nil {
		return 0, err
	}
	n, _, err := replayFile(raw, fn)
	return n, err
}

// ReplayLog replays a whole log into fn: each file in order, then the tail's
// records (tail may be nil) above the last sequence the files replayed. A
// tail's records are newer than everything in its writer's file — except right
// after a restart re-logged them there, which is why the floor is the files'
// last sequence and not the manifest's. It returns the number of entries
// replayed.
func ReplayLog(dev *ssd.Device, files []ssd.FileID, tail *Tail, fn func(kv.Entry) error) (int, error) {
	total := 0
	var last uint64
	for _, f := range files {
		raw, err := readFile(dev, f, device.CauseWAL)
		if err != nil {
			return total, fmt.Errorf("wal: file %d: %w", f, err)
		}
		n, l, err := replayFile(raw, fn)
		total += n
		if err != nil {
			return total, err
		}
		last = max(last, l)
	}
	if tail == nil {
		return total, nil
	}
	img := make([]byte, TailBytes)
	if err := tail.dev.ReadAt(tail.addr, 0, img, device.CauseWAL); err != nil {
		return total, fmt.Errorf("wal: tail at PM address %d: %w", tail.addr, err)
	}
	n, err := replayTail(img, last, fn)
	return total + n, err
}

// replayFile hands fn every entry of the intact records of a file image, in
// order, and returns how many it handed over and the last sequence among
// them.
func replayFile(raw []byte, fn func(kv.Entry) error) (n int, last uint64, err error) {
	r := reader{raw: raw}
	for entries, ok := r.record(); ok; entries, ok = r.record() {
		for _, e := range entries {
			if err := fn(e); err != nil {
				return n, last, err
			}
			n++
			last = max(last, e.Seq)
		}
	}
	return n, last, nil
}

// replayTail hands fn the entries above floor of the tail image img, in
// order: from the first record, which opens the header's epoch, up to the
// first record that is torn, fails its checksum, or whose sequence is not
// above the one before it — a leftover of an earlier epoch, since the tail is
// rewritten in place from its start.
func replayTail(img []byte, floor uint64, fn func(kv.Entry) error) (int, error) {
	epoch, ok := tailEpoch(img)
	if !ok || epoch == 0 {
		return 0, nil
	}
	r := reader{raw: img, off: tailHeader}
	n, last := 0, epoch-1
	for entries, ok := r.record(); ok && entries[0].Seq > last; entries, ok = r.record() {
		for _, e := range entries {
			last = e.Seq
			if e.Seq <= floor {
				continue
			}
			if err := fn(e); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

// parseRecord decodes a record payload: one entry, or a batch of them.
func parseRecord(p []byte) ([]kv.Entry, error) {
	if p[8] == batchKind {
		return parseBatchPayload(p)
	}
	e, err := parsePayload(p)
	if err != nil {
		return nil, err
	}
	return []kv.Entry{e}, nil
}

func parseBatchPayload(p []byte) ([]kv.Entry, error) {
	p = p[9:] // leading seq + batchKind already inspected by the caller
	count, w := binary.Uvarint(p)
	if w <= 0 {
		return nil, errors.New("wal: bad batch count")
	}
	p = p[w:]
	entries := make([]kv.Entry, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(p) < 9 {
			return nil, fmt.Errorf("wal: short batch payload %d", len(p))
		}
		e := kv.Entry{Seq: binary.LittleEndian.Uint64(p[0:8]), Kind: kv.Kind(p[8])}
		p = p[9:]
		klen, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < klen {
			return nil, errors.New("wal: bad batch key length")
		}
		e.Key = append([]byte(nil), p[n:n+int(klen)]...)
		p = p[n+int(klen):]
		vlen, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < vlen {
			return nil, errors.New("wal: bad batch value length")
		}
		e.Value = append([]byte(nil), p[n:n+int(vlen)]...)
		p = p[n+int(vlen):]
		entries = append(entries, e)
	}
	if len(p) != 0 {
		return nil, errors.New("wal: trailing bytes in batch payload")
	}
	return entries, nil
}

func parsePayload(p []byte) (kv.Entry, error) {
	if len(p) < 9 {
		return kv.Entry{}, fmt.Errorf("wal: short payload %d", len(p))
	}
	e := kv.Entry{Seq: binary.LittleEndian.Uint64(p[0:8]), Kind: kv.Kind(p[8])}
	p = p[9:]
	klen, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < klen {
		return kv.Entry{}, errors.New("wal: bad key length")
	}
	e.Key = append([]byte(nil), p[n:n+int(klen)]...)
	p = p[n+int(klen):]
	vlen, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < vlen {
		return kv.Entry{}, errors.New("wal: bad value length")
	}
	e.Value = append([]byte(nil), p[n:n+int(vlen)]...)
	return e, nil
}
