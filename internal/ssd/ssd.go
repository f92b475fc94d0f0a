// Package ssd simulates a NAND-flash solid-state drive: page-granular
// read/write with a service-time latency model and bounded internal
// parallelism. Requests beyond the device's parallelism queue up, so latency
// grows under concurrent load — the I/O-contention behaviour the paper's
// coroutine scheduler exploits (Table III, Figure 9).
//
// The device is a booked first-come-first-served queue over Parallelism
// channels. A request is booked on the channel that frees first, under one
// mutex: it starts at max(now, that channel's free instant) and completes
// one service time later. Its caller then waits, once, until that completion
// instant (clock.Spin). Nothing holds a slot and nothing but the waiting
// caller runs while a request is queued or in service.
//
// Files are extents of pages identified by a FileID; contents live in heap
// memory. Byte counters are attributed per cause for write-amplification
// accounting.
//
// A caller that needs several blocks at once books them together with
// Submit (or MapBatch, which waits for all of them): they are outstanding at
// the device together — the only way a single client fills more than one
// channel — and the caller's one goroutine takes each as it completes.
//
// Media rot (Rot) replaces a file's contents with a rotted copy, so bytes
// already handed out by MapAt keep what was read, and only later reads see
// the rot, as on a real drive.
//
// Durability model (faultkit): Append extends a file's volatile contents;
// Sync advances its durable length. A power cut (injected via SetFault)
// loses the unsynced tail — CrashImage materialises the post-crash device,
// with the surviving fraction of each unsynced tail chosen by the fault
// layer's seeded policy. Named root pointers (SetRoot/Root) model the atomic
// manifest rename: durable the moment they are installed.
package ssd

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pmblade/internal/clock"
	"pmblade/internal/device"
	"pmblade/internal/fault"
	"pmblade/internal/histogram"
)

// PageSize is the I/O granularity of the simulated device.
const PageSize = 4096

// Profile describes the latency model.
type Profile struct {
	// ReadLatency / WriteLatency are per-operation service times: how long
	// a request occupies one of the device's channels.
	ReadLatency  time.Duration
	WriteLatency time.Duration
	// ReadBandwidth / WriteBandwidth (bytes/sec) add a per-byte service-time
	// component; zero disables it.
	ReadBandwidth  int64
	WriteBandwidth int64
	// Parallelism is the number of requests the device services at once
	// (internal NAND channels); 0 means 8.
	Parallelism int
}

// FastProfile has no injected latency (unit tests).
var FastProfile = Profile{Parallelism: 64}

// NVMeProfile approximates a data-center NVMe drive, scaled so that
// experiments complete quickly while preserving the PM:SSD latency ratio
// (~25x reads) the paper's results depend on.
var NVMeProfile = Profile{
	ReadLatency:    80 * time.Microsecond,
	WriteLatency:   60 * time.Microsecond,
	ReadBandwidth:  3_200 << 20,
	WriteBandwidth: 1_800 << 20,
	Parallelism:    8,
}

// FileID identifies an SSD-resident file.
type FileID uint64

// ErrNotFound is returned for operations on unknown files.
var ErrNotFound = errors.New("ssd: file not found")

type file struct {
	data []byte
	// durable is the prefix guaranteed to survive a power cut (advanced by
	// Sync, shrunk by Truncate).
	durable int64
	// doomed, when >= 0, caps durable forever: a Dropped fault landed at that
	// offset, so bytes at and beyond it are lost at the next power cut no
	// matter how many syncs follow (lying write cache). -1 means none.
	doomed int64
}

// Device is a simulated SSD. All methods are safe for concurrent use.
type Device struct {
	profile Profile
	stats   *device.Stats

	epoch   time.Time       // zero of the queue's clock
	qmu     sync.Mutex      // books requests on channels
	freeAt  []time.Duration // per channel, when its booked work ends (since epoch); guarded by: qmu
	queued  atomic.Int64    // requests issued and not yet completed
	ioLat   *histogram.Histogram
	mu      sync.RWMutex
	files   map[FileID]*file
	roots   map[string]FileID // named durable root pointers; guarded by: mu
	nextID  atomic.Uint64
	written atomic.Int64

	fault *fault.Injector // nil = no fault injection
}

// New creates a device with the given profile.
func New(p Profile) *Device {
	par := p.Parallelism
	if par <= 0 {
		par = 8
	}
	d := &Device{
		profile: p,
		stats:   device.NewStats(),
		epoch:   time.Now(),
		freeAt:  make([]time.Duration, par),
		files:   make(map[FileID]*file),
		roots:   make(map[string]FileID),
		ioLat:   histogram.New(),
	}
	return d
}

// SetFault attaches a fault injector; nil detaches. Not safe to race with
// in-flight I/O — attach before handing the device to the engine.
func (d *Device) SetFault(in *fault.Injector) { d.fault = in }

// hook consults the fault injector, if any.
func (d *Device) hook(p fault.Point, cause device.Cause, id FileID, n int) fault.Decision {
	if d.fault == nil {
		return fault.Decision{}
	}
	return d.fault.Hook(fault.Op{Point: p, Cause: cause, File: uint64(id), Len: n})
}

// Stats exposes the device counters.
func (d *Device) Stats() *device.Stats { return d.stats }

// IOLatency exposes the histogram of end-to-end request latencies (queueing
// plus service); Figure 9(c) and Table III report from it.
func (d *Device) IOLatency() *histogram.Histogram { return d.ioLat }

// QueueDepth reports requests currently issued and not completed — the
// paper's q_comp + q_cli signal used by the flush-coroutine admission policy.
func (d *Device) QueueDepth() int { return int(d.queued.Load()) }

// Parallelism reports the device's internal parallelism.
func (d *Device) Parallelism() int {
	d.qmu.Lock()
	defer d.qmu.Unlock()
	return len(d.freeAt)
}

// serviceTime computes the in-device time for an op of n bytes.
func (d *Device) serviceTime(write bool, n int) time.Duration {
	p := d.profile
	var lat time.Duration
	var bw int64
	if write {
		lat, bw = p.WriteLatency, p.WriteBandwidth
	} else {
		lat, bw = p.ReadLatency, p.ReadBandwidth
	}
	if bw > 0 {
		lat += time.Duration(int64(n) * int64(time.Second) / bw)
	}
	return lat
}

// now reads the queue's clock.
func (d *Device) now() time.Duration { return time.Since(d.epoch) }

// bookLocked reserves the channel that frees first for a request of service
// time st issued at now, and returns the instant the request completes.
//
//pmblade:holds qmu
func (d *Device) bookLocked(now, st time.Duration) time.Duration {
	c := 0
	for i := 1; i < len(d.freeAt); i++ {
		if d.freeAt[i] < d.freeAt[c] {
			c = i
		}
	}
	end := max(now, d.freeAt[c]) + st
	d.freeAt[c] = end
	d.queued.Add(1)
	return end
}

// complete waits until a booked request's completion instant end, then
// accounts it: st of busy time and end-issued of latency (queue plus
// service).
func (d *Device) complete(issued, end, st time.Duration) {
	clock.Spin(end - d.now())
	d.queued.Add(-1)
	d.stats.AddBusy(st)
	d.ioLat.Record(end - issued)
}

// perform executes one request: book it, wait for it to complete, account
// it.
func (d *Device) perform(write bool, n int) {
	st := d.serviceTime(write, n)
	if st <= 0 {
		return
	}
	d.qmu.Lock()
	issued := d.now()
	end := d.bookLocked(issued, st)
	d.qmu.Unlock()
	d.complete(issued, end, st)
}

// Create allocates a new empty file.
func (d *Device) Create() FileID {
	id := FileID(d.nextID.Add(1))
	d.mu.Lock()
	d.files[id] = &file{doomed: -1}
	d.mu.Unlock()
	return id
}

// Delete removes a file. Deleting an unknown file is a no-op. Deletion is a
// durable directory operation; under an armed power cut the delete simply
// does not happen (callers treat deletion as advisory cleanup).
func (d *Device) Delete(id FileID) {
	if dec := d.hook(fault.SSDDelete, device.CauseUnknown, id, 0); dec.Err != nil {
		return
	}
	d.mu.Lock()
	delete(d.files, id)
	d.mu.Unlock()
}

// RotEvent records one injected at-rest corruption: the byte at Off of file
// File was xor-ed with Mask.
type RotEvent struct {
	File FileID
	Off  int64
	Mask byte
}

// Rot is the latent-corruption (bit-rot) failpoint: it flips one seeded byte
// of the at-rest image of file id, inside the window [off, off+n). The byte
// and the xor mask come from the injector's seeded stream, so a soak run
// reproduces bit-for-bit. Rot mutates the stored bytes directly — durable
// and volatile views alike — which is the point: the corruption is silent
// until a later read or a scrub checks the covering checksum.
func (d *Device) Rot(id FileID, off, n int64) (RotEvent, error) {
	if dec := d.hook(fault.SSDRot, device.CauseUnknown, id, int(n)); dec.Err != nil {
		return RotEvent{}, dec.Err
	}
	if d.fault == nil {
		return RotEvent{}, errors.New("ssd: Rot requires a fault.Injector")
	}
	delta, mask := d.fault.RotByte(n)
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[id]
	if !ok {
		return RotEvent{}, ErrNotFound
	}
	at := off + delta
	if at < 0 || at >= int64(len(f.data)) {
		return RotEvent{}, fmt.Errorf("ssd: rot offset %d outside file %d (%d bytes)", at, id, len(f.data))
	}
	// The rot goes into a copy: views MapAt handed out earlier (and the
	// block-cache entries and readahead spans that alias them) keep the bytes
	// they read, and only later reads see the flipped byte.
	f.data = append([]byte(nil), f.data...)
	f.data[at] ^= mask
	return RotEvent{File: id, Off: at, Mask: mask}, nil
}

// SetRoot atomically installs a named root pointer — the simulated rename of
// a CURRENT file onto the manifest. The update is durable the moment it
// returns (journaled rename); a power cut at this failpoint leaves the
// previous value in place.
func (d *Device) SetRoot(name string, id FileID) error {
	if dec := d.hook(fault.SSDRoot, device.CauseUnknown, id, 0); dec.Err != nil {
		return dec.Err
	}
	d.mu.Lock()
	d.roots[name] = id
	d.mu.Unlock()
	return nil
}

// Root reads a named root pointer.
func (d *Device) Root(name string) (FileID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.roots[name]
	return id, ok
}

// Files lists all live file ids in ascending order.
func (d *Device) Files() []FileID {
	d.mu.RLock()
	ids := make([]FileID, 0, len(d.files))
	for id := range d.files {
		ids = append(ids, id)
	}
	d.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Size reports a file's length in bytes, or -1 if it does not exist.
func (d *Device) Size(id FileID) int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	f, ok := d.files[id]
	if !ok {
		return -1
	}
	return int64(len(f.data))
}

// DurableSize reports the prefix of a file guaranteed to survive a power
// cut, or -1 if the file does not exist.
func (d *Device) DurableSize(id FileID) int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	f, ok := d.files[id]
	if !ok {
		return -1
	}
	dur := f.durable
	if f.doomed >= 0 && dur > f.doomed {
		dur = f.doomed
	}
	return dur
}

// UsedBytes reports total live bytes across files.
func (d *Device) UsedBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var t int64
	for _, f := range d.files {
		t += int64(len(f.data))
	}
	return t
}

// pages rounds n bytes up to whole pages for the latency model.
func pages(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + PageSize - 1) / PageSize
}

// Append writes p at the end of the file, charging one queued write per page
// span. It returns the offset at which the data landed. The bytes are
// volatile until the next Sync.
func (d *Device) Append(id FileID, p []byte, cause device.Cause) (int64, error) {
	if dec := d.hook(fault.SSDAppend, cause, id, len(p)); dec.Err != nil || dec.Drop {
		if dec.Err != nil {
			if dec.Tear > 0 {
				tear := dec.Tear
				if tear > len(p) {
					tear = len(p)
				}
				d.mu.Lock()
				if f, ok := d.files[id]; ok {
					f.data = append(f.data, p[:tear]...)
				}
				d.mu.Unlock()
			}
			return 0, dec.Err
		}
		// Drop: apply the write, report success, but doom the bytes — they
		// can never become durable.
		d.mu.Lock()
		f, ok := d.files[id]
		if !ok {
			d.mu.Unlock()
			return 0, ErrNotFound
		}
		off := int64(len(f.data))
		if f.doomed < 0 || off < f.doomed {
			f.doomed = off
		}
		f.data = append(f.data, p...)
		d.mu.Unlock()
		d.stats.CountWrite(cause, len(p))
		d.written.Add(int64(len(p)))
		return off, nil
	}
	d.mu.Lock()
	f, ok := d.files[id]
	if !ok {
		d.mu.Unlock()
		return 0, ErrNotFound
	}
	off := int64(len(f.data))
	f.data = append(f.data, p...)
	d.mu.Unlock()
	d.perform(true, pages(len(p))*PageSize)
	d.stats.CountWrite(cause, len(p))
	d.written.Add(int64(len(p)))
	return off, nil
}

// readFault consults the fault injector, if any, about a read of n bytes of
// file id (fault.SSDRead: a failure to script, not a crash point to count).
func (d *Device) readFault(cause device.Cause, id FileID, n int) error {
	if d.fault == nil {
		return nil
	}
	return d.fault.HookRead(fault.Op{Point: fault.SSDRead, Cause: cause, File: uint64(id), Len: n}).Err
}

// ReadAt fills p from the file at off, charging one queued read per page span.
func (d *Device) ReadAt(id FileID, off int64, p []byte, cause device.Cause) error {
	if err := d.readFault(cause, id, len(p)); err != nil {
		return err
	}
	d.mu.RLock()
	f, ok := d.files[id]
	if !ok {
		d.mu.RUnlock()
		return ErrNotFound
	}
	if off < 0 || off+int64(len(p)) > int64(len(f.data)) {
		d.mu.RUnlock()
		return fmt.Errorf("ssd: read out of range file=%d off=%d len=%d size=%d",
			id, off, len(p), len(f.data))
	}
	copy(p, f.data[off:])
	d.mu.RUnlock()
	d.perform(false, pages(len(p))*PageSize)
	d.stats.CountRead(cause, len(p))
	return nil
}

// MapAt returns a zero-copy read-only view of file bytes [off, off+n) — the
// simulated counterpart of reading through an mmap'd file. It charges the
// same service time as ReadAt. The view aliases the device's backing store:
// Go's GC keeps it valid even after the file is deleted, and it keeps the
// bytes it read — at-rest corruption injected later (Rot) shows only in later
// reads. Callers must verify checksums at decode time, exactly as they must
// for a fresh copy. Only immutable files (finished SSTables) may be mapped:
// an append that regrows the backing array would strand the view on stale
// bytes.
func (d *Device) MapAt(id FileID, off int64, n int, cause device.Cause) ([]byte, error) {
	view, err := d.view(id, off, n, cause)
	if err != nil {
		return nil, err
	}
	d.perform(false, pages(n)*PageSize)
	d.stats.CountRead(cause, n)
	return view, nil
}

// view resolves a mapped read without charging for it.
func (d *Device) view(id FileID, off int64, n int, cause device.Cause) ([]byte, error) {
	if err := d.readFault(cause, id, n); err != nil {
		return nil, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	f, ok := d.files[id]
	if !ok {
		return nil, ErrNotFound
	}
	if off < 0 || n < 0 || off+int64(n) > int64(len(f.data)) {
		return nil, fmt.Errorf("ssd: map out of range file=%d off=%d len=%d size=%d",
			id, off, n, len(f.data))
	}
	return f.data[off : off+int64(n) : off+int64(n)], nil
}

// MapReq is one read of a batch: the range to map and, once Batch.Next has
// returned its index, the view or the error MapAt gives for it.
type MapReq struct {
	File FileID
	Off  int64
	Len  int

	Data []byte
	Err  error

	st   time.Duration // service time booked; 0 when none was
	end  time.Duration // completion instant on the queue's clock
	done bool          // handed back by Next
}

// Batch is a set of reads booked on the device's queue together by Submit.
// The caller takes them back one at a time, in completion order, with Next;
// it must take every one, since each is counted in QueueDepth until then.
type Batch struct {
	d      *Device
	reqs   []MapReq
	cause  device.Cause
	issued time.Duration
}

// Submit books every request of reqs at once — the simulated counterpart of
// filling an NVMe submission queue instead of issuing one read and waiting
// for it — and returns without waiting. Each request is an ordinary MapAt: it
// is booked on a channel of its own in request order, charged its own
// service time and counted and timed on its own, so a batch costs the device
// exactly what the same reads cost one after another; only the caller's
// waiting overlaps, up to Parallelism requests at a time. A failing request
// fails alone and costs no device time.
func (d *Device) Submit(reqs []MapReq, cause device.Cause) Batch {
	for i := range reqs {
		r := &reqs[i]
		r.Data, r.Err = d.view(r.File, r.Off, r.Len, cause)
		r.st, r.done = 0, false
		if r.Err == nil {
			r.st = d.serviceTime(false, pages(r.Len)*PageSize)
		}
	}
	d.qmu.Lock()
	issued := d.now()
	for i := range reqs {
		r := &reqs[i]
		r.end = issued
		if r.st > 0 {
			r.end = d.bookLocked(issued, r.st)
		}
	}
	d.qmu.Unlock()
	return Batch{d: d, reqs: reqs, cause: cause, issued: issued}
}

// Next waits on the caller's goroutine for the earliest-completing request
// not yet handed back (ties in request order), accounts it, and returns its
// index in the submitted slice; -1 once all have been handed back.
func (b *Batch) Next() int {
	k := -1
	for i := range b.reqs {
		if r := &b.reqs[i]; !r.done && (k < 0 || r.end < b.reqs[k].end) {
			k = i
		}
	}
	if k < 0 {
		return -1
	}
	r := &b.reqs[k]
	r.done = true
	if r.Err == nil {
		if r.st > 0 {
			b.d.complete(b.issued, r.end, r.st)
		}
		b.d.stats.CountRead(b.cause, r.Len)
	}
	return k
}

// MapBatch submits every request at once and returns when all have
// completed: Submit, then Next until the batch is drained.
func (d *Device) MapBatch(reqs []MapReq, cause device.Cause) {
	b := d.Submit(reqs, cause)
	for b.Next() >= 0 {
	}
}

// Truncate shrinks a file to size bytes (crash-tail simulation and log
// rollback). It charges no I/O latency.
func (d *Device) Truncate(id FileID, size int64) error {
	if dec := d.hook(fault.SSDTruncate, device.CauseUnknown, id, int(size)); dec.Err != nil {
		return dec.Err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[id]
	if !ok {
		return ErrNotFound
	}
	if size < 0 || size > int64(len(f.data)) {
		return fmt.Errorf("ssd: truncate out of range file=%d size=%d len=%d",
			id, size, len(f.data))
	}
	f.data = f.data[:size]
	if f.durable > size {
		f.durable = size
	}
	if f.doomed >= size {
		f.doomed = -1
	}
	return nil
}

// Sync models an fsync: everything appended so far becomes durable (except
// doomed bytes — see fault.Decision.Drop). It charges one write-latency
// barrier.
func (d *Device) Sync(id FileID) error {
	if dec := d.hook(fault.SSDSync, device.CauseUnknown, id, 0); dec.Err != nil {
		return dec.Err
	}
	d.mu.Lock()
	f, ok := d.files[id]
	if !ok {
		d.mu.Unlock()
		return ErrNotFound
	}
	f.durable = int64(len(f.data))
	if f.doomed >= 0 && f.durable > f.doomed {
		f.durable = f.doomed
	}
	d.mu.Unlock()
	d.perform(true, 0)
	return nil
}

// CrashImage materialises the device state after a power cut: each file is
// cut back to keep(id, durable, size) bytes, where durable ≤ keep ≤ size and
// size excludes doomed bytes. keep may be nil, in which case only the durable
// prefix survives. Root pointers and the file-id counter carry over (ids
// allocated after recovery must not collide with manifest-referenced ones).
// The image has no fault injector attached and fresh stats.
func (d *Device) CrashImage(keep func(id FileID, durable, size int64) int64) *Device {
	img := New(d.profile)
	img.nextID.Store(d.nextID.Load())
	// img is not yet published, but its fields are annotated; lock anyway.
	img.mu.Lock()
	defer img.mu.Unlock()
	d.mu.RLock()
	defer d.mu.RUnlock()
	ids := make([]FileID, 0, len(d.files))
	for id := range d.files {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		f := d.files[id]
		max := int64(len(f.data))
		if f.doomed >= 0 && max > f.doomed {
			max = f.doomed
		}
		dur := f.durable
		if dur > max {
			dur = max
		}
		n := dur
		if keep != nil {
			n = keep(id, dur, max)
			if n < dur {
				n = dur
			}
			if n > max {
				n = max
			}
		}
		img.files[id] = &file{
			data:    append([]byte(nil), f.data[:n]...),
			durable: n,
			doomed:  -1,
		}
	}
	for name, id := range d.roots {
		img.roots[name] = id
	}
	return img
}
