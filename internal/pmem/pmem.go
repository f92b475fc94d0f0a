// Package pmem simulates a persistent-memory (Intel Optane-like) device: a
// byte-addressable arena with an injected latency model, allocation, and
// flush/fence persistence bookkeeping.
//
// The simulation preserves the properties the paper's results depend on:
//
//   - byte addressability: readers address arbitrary offsets without page I/O;
//   - read latency ~3-5x DRAM (injected via calibrated spin);
//   - write latency and bandwidth well above SSD but below DRAM;
//   - large capacity with allocation pressure (the cost model needs to observe
//     space running out);
//   - byte-exact write counters for write-amplification accounting.
//
// Data lives in ordinary heap memory; "persistence" is modeled by tracking
// flushed extents so tests can assert crash-consistency protocols, not by
// surviving real process crashes.
//
// # What one charged access models
//
// Optane media is read a LineSize (256-byte) line at a time (Yang et al.): a
// load that misses the CPU caches costs Profile.ReadLatency whether it wants
// one byte of the line or all of it, and further loads from the same line
// are CPU-cache hits. ChargeAccess is that one line fetch. Alloc returns
// LineSize-aligned regions, so a reader walking a View decides what to
// charge from offsets alone: one ChargeAccess per distinct line a lookup
// touches in a structure it probes at random (pmtable's prefix layer, the
// array formats' offset arrays), and one per landing on data it then reads
// sequentially (an entry group, a record) — the sequential bytes ride the
// device's prefetch and are not charged again.
//
// What it does not model: a CPU cache that outlives one lookup (every lookup
// starts cold, the worst case for a hot table), the device's internal
// read-buffer hits across lookups, bandwidth contention between threads, and
// the cost of the bytes themselves on View/ChargeAccess (only ReadAt and
// WriteAt charge per byte).
package pmem

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pmblade/internal/clock"
	"pmblade/internal/device"
	"pmblade/internal/fault"
)

// Profile describes the injected latency model.
type Profile struct {
	// ReadLatency is charged once per Read call (device access latency).
	ReadLatency time.Duration
	// WriteLatency is charged once per Write call.
	WriteLatency time.Duration
	// ReadBandwidth and WriteBandwidth are bytes/second; zero disables the
	// per-byte charge.
	ReadBandwidth  int64
	WriteBandwidth int64
}

// FastProfile has zero injected latency; unit tests use it.
var FastProfile = Profile{}

// OptaneProfile approximates a single Optane DC PMM DIMM — the paper's
// testbed uses "one chip of 128 GB" — per Yang et al.'s empirical guide:
// ~300ns random read, ~100ns write into the device's write buffer,
// ~2.4 GB/s read and ~1.2 GB/s write bandwidth (non-interleaved).
var OptaneProfile = Profile{
	ReadLatency:    300 * time.Nanosecond,
	WriteLatency:   100 * time.Nanosecond,
	ReadBandwidth:  2_400 << 20,
	WriteBandwidth: 1_200 << 20,
}

// CXLProfile approximates CXL-attached expanded memory — the device class
// the paper's conclusion proposes applying PM-Blade to next. One CXL hop
// adds ~170-250ns over local DRAM with near-DRAM bandwidth, so it sits
// between DRAM and Optane: slightly faster reads than Optane, much higher
// write bandwidth, but (in the expander configurations of interest) still
// persistent-capable via battery-backed DIMMs.
var CXLProfile = Profile{
	ReadLatency:    200 * time.Nanosecond,
	WriteLatency:   180 * time.Nanosecond,
	ReadBandwidth:  20_000 << 20,
	WriteBandwidth: 16_000 << 20,
}

// LineSize is the device's access granule in bytes: what one charged access
// fetches, and the alignment of every region Alloc returns.
const LineSize = 256

// ErrOutOfSpace is returned by Alloc when the arena is full.
var ErrOutOfSpace = errors.New("pmem: out of space")

// Addr is an offset within the device arena.
type Addr int64

// Device is a simulated persistent-memory device. All methods are safe for
// concurrent use.
type Device struct {
	profile Profile
	cap     int64
	stats   *device.Stats

	mu      sync.Mutex
	arena   []byte
	next    int64 // bump-allocation cursor, always a multiple of LineSize
	freed   int64 // whole lines released (space accounting only; arena is not reused)
	regions map[Addr]int64
	// doomed, when >= 0, caps the flush high-water mark forever: a Dropped
	// fault landed at that offset, so bytes at and beyond it are lost at the
	// next power cut regardless of later flushes. -1 means none.
	doomed int64 // guarded by: mu

	flushed atomic.Int64 // high-water mark of flushed bytes (persistence model)

	fault *fault.Injector // nil = no fault injection
}

// New creates a device with the given capacity in bytes.
func New(capacity int64, p Profile) *Device {
	return &Device{
		profile: p,
		cap:     capacity,
		stats:   device.NewStats(),
		regions: make(map[Addr]int64),
		doomed:  -1,
	}
}

// SetFault attaches a fault injector; nil detaches. Attach before handing
// the device to the engine.
func (d *Device) SetFault(in *fault.Injector) { d.fault = in }

// hook consults the fault injector, if any.
func (d *Device) hook(p fault.Point, cause device.Cause, n int) fault.Decision {
	if d.fault == nil {
		return fault.Decision{}
	}
	return d.fault.Hook(fault.Op{Point: p, Cause: cause, Len: n})
}

// Stats exposes the device counters.
func (d *Device) Stats() *device.Stats { return d.stats }

// Capacity reports the configured capacity in bytes.
func (d *Device) Capacity() int64 { return d.cap }

// Used reports live allocated bytes (allocated minus freed), in whole lines.
func (d *Device) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.next - d.freed
}

// Free reports remaining allocatable bytes.
func (d *Device) Free() int64 { return d.cap - d.Used() }

// lines rounds n up to whole lines.
func lines(n int64) int64 { return (n + LineSize - 1) &^ (LineSize - 1) }

// Alloc reserves n bytes and returns the region's LineSize-aligned address.
// A region occupies whole lines; it fails with ErrOutOfSpace when live lines
// would exceed capacity.
func (d *Device) Alloc(n int) (Addr, error) {
	if n < 0 {
		return 0, fmt.Errorf("pmem: negative allocation %d", n)
	}
	if dec := d.hook(fault.PMAlloc, device.CauseUnknown, n); dec.Err != nil {
		return 0, dec.Err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.next-d.freed+lines(int64(n)) > d.cap {
		return 0, ErrOutOfSpace
	}
	addr := Addr(d.next)
	// Grow the backing arena lazily in 1 MiB steps so tiny tests stay tiny.
	need := d.next + lines(int64(n))
	if int64(len(d.arena)) < need {
		grow := int64(len(d.arena))
		if grow < 1<<20 {
			grow = 1 << 20
		}
		for grow < need {
			grow *= 2
		}
		bigger := make([]byte, grow)
		copy(bigger, d.arena)
		d.arena = bigger
	}
	d.next = need
	d.regions[addr] = int64(n)
	return addr, nil
}

// Size reports the size of the region at addr, or -1 if unknown.
func (d *Device) Size(addr Addr) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n, ok := d.regions[addr]; ok {
		return n
	}
	return -1
}

// Release returns a region's bytes to the free-space accounting. The
// simulated arena is append-only, so data remains readable until overwritten;
// this mirrors a real allocator's deferred reuse and keeps readers safe.
// A fault at this point means the deferred free is lost to the crash — the
// region simply stays accounted, exactly like a real allocator whose free
// list never reached media (recovery re-derives liveness from the manifest).
func (d *Device) Release(addr Addr) {
	if dec := d.hook(fault.PMRelease, device.CauseUnknown, 0); dec.Err != nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if n, ok := d.regions[addr]; ok {
		d.freed += lines(n)
		delete(d.regions, addr)
	}
}

// RotEvent records one injected at-rest corruption: the byte at Off within
// the region at Addr was xor-ed with Mask.
type RotEvent struct {
	Addr Addr
	Off  int64
	Mask byte
}

// Rot is the latent-corruption (bit-rot) failpoint: it flips one seeded byte
// of the region at addr, inside the window [off, off+n). Which byte, and the
// xor mask, come from the injector's seeded stream. The arena bytes mutate
// in place — the corruption is silent until something re-checks the image
// checksum (pmtable.Verify, the scrubber, or a re-open).
func (d *Device) Rot(addr Addr, off, n int64) (RotEvent, error) {
	if dec := d.hook(fault.PMRot, device.CauseUnknown, int(n)); dec.Err != nil {
		return RotEvent{}, dec.Err
	}
	if d.fault == nil {
		return RotEvent{}, errors.New("pmem: Rot requires a fault.Injector")
	}
	delta, mask := d.fault.RotByte(n)
	d.mu.Lock()
	defer d.mu.Unlock()
	size, ok := d.regions[addr]
	if !ok {
		return RotEvent{}, fmt.Errorf("pmem: rot target %d is not a live region", addr)
	}
	at := off + delta
	if at < 0 || at >= size {
		return RotEvent{}, fmt.Errorf("pmem: rot offset %d outside region %d (%d bytes)", at, addr, size)
	}
	d.arena[int64(addr)+at] ^= mask
	return RotEvent{Addr: addr, Off: at, Mask: mask}, nil
}

func (d *Device) chargeRead(n int) {
	p := d.profile
	lat := p.ReadLatency
	if p.ReadBandwidth > 0 {
		lat += time.Duration(int64(n) * int64(time.Second) / p.ReadBandwidth)
	}
	if lat > 0 {
		clock.Spin(lat)
		d.stats.AddBusy(lat)
	}
}

func (d *Device) chargeWrite(n int) {
	p := d.profile
	lat := p.WriteLatency
	if p.WriteBandwidth > 0 {
		lat += time.Duration(int64(n) * int64(time.Second) / p.WriteBandwidth)
	}
	if lat > 0 {
		clock.Spin(lat)
		d.stats.AddBusy(lat)
	}
}

// WriteAt copies p into the arena at addr+off, charging the latency model and
// attributing bytes to cause. The bytes are volatile (store-buffer resident)
// until the next Flush.
func (d *Device) WriteAt(addr Addr, off int64, p []byte, cause device.Cause) error {
	dec := d.hook(fault.PMWrite, cause, len(p))
	d.mu.Lock()
	base := int64(addr) + off
	var err error
	switch {
	case base < 0 || base+int64(len(p)) > d.next:
		err = fmt.Errorf("pmem: write out of range addr=%d off=%d len=%d", addr, off, len(p))
	case dec.Err != nil:
		if tear := dec.Tear; tear > 0 {
			if tear > len(p) {
				tear = len(p)
			}
			copy(d.arena[base:], p[:tear])
		}
		err = dec.Err
	default:
		if dec.Drop {
			// Lying DIMM: the store lands but can never be flushed to media.
			if d.doomed < 0 || base < d.doomed {
				d.doomed = base
			}
		}
		copy(d.arena[base:], p)
	}
	d.mu.Unlock()
	if err != nil {
		return err
	}
	d.chargeWrite(len(p))
	d.stats.CountWrite(cause, len(p))
	return nil
}

// ReadAt copies from the arena at addr+off into p, charging the latency model.
func (d *Device) ReadAt(addr Addr, off int64, p []byte, cause device.Cause) error {
	d.mu.Lock()
	base := int64(addr) + off
	if base < 0 || base+int64(len(p)) > d.next {
		d.mu.Unlock()
		return fmt.Errorf("pmem: read out of range addr=%d off=%d len=%d", addr, off, len(p))
	}
	copy(p, d.arena[base:base+int64(len(p))])
	d.mu.Unlock()
	d.chargeRead(len(p))
	d.stats.CountRead(cause, len(p))
	return nil
}

// View returns a zero-copy read-only view of [addr+off, addr+off+n). The
// caller must not retain it across a Release of the region. One access is
// charged for obtaining the view; readers that then probe it charge their
// own line fetches with ChargeAccess.
func (d *Device) View(addr Addr, off, n int64, cause device.Cause) ([]byte, error) {
	d.mu.Lock()
	base := int64(addr) + off
	if base < 0 || base+n > d.next {
		d.mu.Unlock()
		return nil, fmt.Errorf("pmem: view out of range addr=%d off=%d len=%d", addr, off, n)
	}
	v := d.arena[base : base+n : base+n]
	d.mu.Unlock()
	d.chargeRead(0)
	d.stats.CountRead(cause, int(n))
	return v, nil
}

// ChargeAccess injects one device access — the fetch of one LineSize line —
// without transferring bytes. Readers walking a View call it once per
// distinct line a lookup touches (see the package doc).
func (d *Device) ChargeAccess() { d.chargeRead(0) }

// Flush marks everything written so far as persistent (clwb + sfence in the
// real device), except doomed bytes (see fault.Decision.Drop). Tests use
// Persisted to assert protocol ordering.
func (d *Device) Flush() error {
	if dec := d.hook(fault.PMFlush, device.CauseUnknown, 0); dec.Err != nil {
		return dec.Err
	}
	d.mu.Lock()
	n := d.next
	if d.doomed >= 0 && n > d.doomed {
		n = d.doomed
	}
	d.mu.Unlock()
	for {
		cur := d.flushed.Load()
		if n <= cur || d.flushed.CompareAndSwap(cur, n) {
			return nil
		}
	}
}

// CrashImage materialises the device state after a power cut: arena contents
// beyond keep(flushed, next) bytes are wiped (the unflushed tail is lost or
// torn per the fault layer's seeded policy; keep is clamped to
// [flushed, next]). keep may be nil, in which case only the flushed prefix
// survives. Allocator metadata (regions, cursor) is modelled as crash-safe
// and carries over; the image has no fault injector and fresh stats.
func (d *Device) CrashImage(keep func(flushed, next int64) int64) *Device {
	d.mu.Lock()
	defer d.mu.Unlock()
	max := d.next
	if d.doomed >= 0 && max > d.doomed {
		max = d.doomed
	}
	dur := d.flushed.Load()
	if dur > max {
		dur = max
	}
	n := dur
	if keep != nil {
		n = keep(dur, max)
		if n < dur {
			n = dur
		}
		if n > max {
			n = max
		}
	}
	img := New(d.cap, d.profile)
	img.arena = make([]byte, len(d.arena))
	copy(img.arena, d.arena[:n])
	img.next = d.next
	img.freed = d.freed
	for a, sz := range d.regions {
		img.regions[a] = sz
	}
	img.flushed.Store(n)
	return img
}

// Persisted reports whether the region at addr (entirely below the flush
// high-water mark) has been made durable.
func (d *Device) Persisted(addr Addr) bool {
	d.mu.Lock()
	n, ok := d.regions[addr]
	d.mu.Unlock()
	if !ok {
		return false
	}
	return int64(addr)+n <= d.flushed.Load()
}
