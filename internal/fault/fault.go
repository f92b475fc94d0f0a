// Package fault is the deterministic fault-injection layer ("faultkit") for
// the simulated storage devices. The devices (internal/pmem, internal/ssd)
// call Injector.Hook at every durability-relevant operation — append,
// write-at, sync, alloc, truncate, delete, manifest-root install — and the
// injector decides, from a scripted rule set and a seeded PRNG, whether that
// operation
//
//   - proceeds normally,
//   - fails with a transient (retryable) or permanent error,
//   - is torn at a byte offset (a prefix is applied, then the op errors),
//   - is dropped: reports success but its bytes are doomed to vanish at the
//     next power cut even if a later sync claims durability (a lying write
//     cache), or
//   - is the power-cut point: the op does not apply, and every subsequent
//     operation on the device fails with ErrPowerCut.
//
// Everything is seeded: no global rand, no wall clock. A failure schedule is
// reproducible from the one-line (seed, point-index) pair the torture harness
// prints. The crash-point harness lives in internal/fault/crashtest.
//
//pmblade:deterministic package
package fault

import (
	"errors"
	"fmt"
	"sync"

	"pmblade/internal/device"
)

// Point names a failpoint class — the device operation being intercepted.
type Point string

// The failpoints wired into the simulated devices.
const (
	SSDAppend   Point = "ssd.append"
	SSDSync     Point = "ssd.sync"
	SSDTruncate Point = "ssd.truncate"
	SSDDelete   Point = "ssd.delete"
	SSDRoot     Point = "ssd.setroot" // manifest rename (atomic root-pointer install)
	PMAlloc     Point = "pmem.alloc"
	PMWrite     Point = "pmem.writeat"
	PMFlush     Point = "pmem.flush"
	PMRelease   Point = "pmem.release" // deferred free of a superseded region
	SSDRot      Point = "ssd.rot"      // at-rest bit rot injected into a file image
	PMRot       Point = "pmem.rot"     // at-rest bit rot injected into the arena
	SSDRead     Point = "ssd.read"     // a read or map of file bytes; consulted through HookRead
)

// Op describes one intercepted device operation.
type Op struct {
	Point Point
	// Cause is the I/O attribution the device was given (device.CauseWAL,
	// CauseManifest, ...); CauseUnknown for ops that carry none (sync,
	// truncate, delete, root install).
	Cause device.Cause
	// File is the SSD file id (0 for pmem ops).
	File uint64
	// Len is the byte length of the op's payload, if any.
	Len int
}

// Sentinel errors for injected failures.
var (
	// ErrPowerCut is returned by every device operation after the armed
	// power-cut point has fired: the machine is off.
	ErrPowerCut = errors.New("fault: power cut")
	// ErrTransient marks a retryable injected failure; the op did not apply
	// and may be retried (engine write paths retry with bounded backoff).
	ErrTransient = errors.New("fault: transient device failure")
	// ErrPermanent marks a non-retryable injected failure; the engine fails
	// the affected commit group or background task, not the process.
	ErrPermanent = errors.New("fault: permanent device failure")
	// ErrTorn marks a write that was torn at a byte offset: a prefix of the
	// payload was applied before the failure. Never retryable — the caller
	// must treat the destination as suspect.
	ErrTorn = errors.New("fault: torn write")
)

// IsTransient reports whether err is a retryable injected failure.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// Decision tells a device what to do with an intercepted operation.
type Decision struct {
	// Err, when non-nil, fails the operation. Unless Tear > 0 the operation
	// must not mutate device state.
	Err error
	// Tear, with Err non-nil, instructs the device to apply the first Tear
	// bytes of the payload before failing.
	Tear int
	// Drop instructs the device to apply the operation and report success,
	// but to doom the written bytes: they are excluded from the crash image
	// even if a later sync happens (lying write cache). Targeted tests only;
	// the crash-point enumeration never lies about durability.
	Drop bool
}

// Rule is a scripted behaviour for a failpoint.
type Rule struct {
	// Point selects the failpoint; empty matches every point.
	Point Point
	// Cause restricts the rule to ops with this attribution; AnyCause
	// disables the restriction.
	Cause    device.Cause
	AnyCause bool
	// Hit fires the rule on the n-th matching op (1-based); 0 fires on every
	// matching op.
	Hit int
	// Once removes the rule after it fires.
	Once bool
	// Decision is applied when the rule fires.
	Decision Decision
}

// Injector is the deterministic fault scheduler. All methods are safe for
// concurrent use; the hit order observed by Hook defines the global
// point-index space used by ArmPowerCut.
type Injector struct {
	seed int64

	mu      sync.Mutex
	rng     uint64        // splitmix64 state; guarded by: mu
	total   int           // ops observed; guarded by: mu
	perHit  map[Point]int // per-point hit counts; guarded by: mu
	ruleHit map[*Rule]int // per-rule match counts; guarded by: mu
	rules   []*Rule       // guarded by: mu
	cutAt   int           // global op index to cut at (1-based); 0 disarmed
	cutRule *Rule         // point-scoped power-cut arming
	dead    bool          // power has been cut
	onCut   func()        // invoked once, with mu held, when the cut fires
}

// New creates an injector with the given seed. The same seed and the same
// op sequence reproduce the same decisions bit-for-bit.
func New(seed int64) *Injector {
	return &Injector{
		seed:    seed,
		rng:     uint64(seed)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019,
		perHit:  make(map[Point]int),
		ruleHit: make(map[*Rule]int),
	}
}

// Seed reports the seed the injector was built with.
func (in *Injector) Seed() int64 { return in.seed }

// next advances the seeded PRNG (splitmix64). Callers hold mu.
//
//pmblade:holds mu
func (in *Injector) next() uint64 {
	in.rng += 0x9E3779B97F4A7C15
	z := in.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Points reports the number of operations observed so far — after a fault-free
// run this is the size of the crash-point space to enumerate.
func (in *Injector) Points() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.total
}

// Alive reports whether power is still on.
func (in *Injector) Alive() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return !in.dead
}

// Cut turns the power off immediately: every subsequent device operation
// fails with ErrPowerCut.
func (in *Injector) Cut() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.cut()
}

// cut flips the injector dead and fires the callback. Callers hold mu.
func (in *Injector) cut() {
	if in.dead {
		return
	}
	in.dead = true
	if in.onCut != nil {
		in.onCut()
	}
}

// OnPowerCut registers fn to run exactly once at the instant the power cut
// fires (before the cutting op returns). The harness uses it to freeze
// bookkeeping; fn must not call back into the injector.
func (in *Injector) OnPowerCut(fn func()) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.onCut = fn
}

// ArmPowerCut schedules a power cut at the k-th observed operation (1-based,
// counted across all points). The k-th op does not apply.
func (in *Injector) ArmPowerCut(k int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.cutAt = k
}

// ArmPowerCutAt schedules a power cut at the hit-th occurrence (1-based) of
// point p with attribution c; use AnyCause via ArmPowerCutAtPoint.
func (in *Injector) ArmPowerCutAt(p Point, c device.Cause, hit int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.cutRule = &Rule{Point: p, Cause: c, Hit: hit}
}

// ArmPowerCutAtPoint schedules a power cut at the hit-th occurrence (1-based)
// of point p regardless of cause.
func (in *Injector) ArmPowerCutAtPoint(p Point, hit int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.cutRule = &Rule{Point: p, AnyCause: true, Hit: hit}
}

// AddRule installs a scripted failure. Rules are evaluated in insertion
// order; the first that fires wins.
func (in *Injector) AddRule(r Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	rc := r
	in.rules = append(in.rules, &rc)
}

// FailPoint is shorthand for a one-shot rule on the hit-th occurrence of p,
// any cause.
func (in *Injector) FailPoint(p Point, hit int, d Decision) {
	in.AddRule(Rule{Point: p, AnyCause: true, Hit: hit, Once: true, Decision: d})
}

// FailOp is shorthand for a one-shot rule on the hit-th occurrence of p with
// attribution c.
func (in *Injector) FailOp(p Point, c device.Cause, hit int, d Decision) {
	in.AddRule(Rule{Point: p, Cause: c, Hit: hit, Once: true, Decision: d})
}

// matches reports whether rule r applies to op o. Callers hold mu.
func (in *Injector) matches(r *Rule, o Op) bool {
	if r.Point != "" && r.Point != o.Point {
		return false
	}
	if !r.AnyCause && r.Cause != o.Cause {
		return false
	}
	return true
}

// Hook is called by the devices at every durability-relevant operation. The
// returned Decision directs the device; see Decision.
func (in *Injector) Hook(o Op) Decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.dead {
		return Decision{Err: ErrPowerCut}
	}
	in.total++
	in.perHit[o.Point]++

	// Global power-cut index.
	if in.cutAt > 0 && in.total >= in.cutAt {
		in.cut()
		return Decision{Err: fmt.Errorf("%w (point %d)", ErrPowerCut, in.total)}
	}
	// Point-scoped power-cut arming.
	if cr := in.cutRule; cr != nil && in.matches(cr, o) {
		in.ruleHit[cr]++
		if cr.Hit == 0 || in.ruleHit[cr] == cr.Hit {
			in.cut()
			return Decision{Err: fmt.Errorf("%w (%s hit %d)", ErrPowerCut, o.Point, in.ruleHit[cr])}
		}
	}
	return in.scripted(o)
}

// HookRead is Hook for a device read. A read persists nothing, and client
// reads run concurrently with the workload, so it is not a crash point: it
// does not advance the op count that Points reports and ArmPowerCut indexes —
// every -seed/-ops/-point reproduction line stays what it was — and no power
// cut can be armed at it. It fails once the power is off, and otherwise obeys
// the scripted rules (only Decision.Err means anything to a read).
func (in *Injector) HookRead(o Op) Decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.dead {
		return Decision{Err: ErrPowerCut}
	}
	return in.scripted(o)
}

// scripted applies the first rule that fires on o. Callers hold mu.
//
//pmblade:holds mu
func (in *Injector) scripted(o Op) Decision {
	for i, r := range in.rules {
		if !in.matches(r, o) {
			continue
		}
		in.ruleHit[r]++
		if r.Hit != 0 && in.ruleHit[r] != r.Hit {
			continue
		}
		if r.Once {
			in.rules = append(in.rules[:i], in.rules[i+1:]...)
		}
		return r.Decision
	}
	return Decision{}
}

// RotByte picks the target of one at-rest bit-rot event inside an n-byte
// window: a seeded byte offset and a non-zero xor mask. The devices call it
// from their Rot failpoints so that which byte rots, and how, derives from
// the injector seed alone — a soak run reproduces bit-for-bit.
func (in *Injector) RotByte(n int64) (off int64, mask byte) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if n > 0 {
		off = int64(in.next() % uint64(n))
	}
	mask = byte(in.next())
	if mask == 0 {
		mask = 0x80
	}
	return off, mask
}

// KeepBytes is the seeded crash-image policy for one torn region: given the
// durable prefix length and the total (volatile) length, it picks how many
// bytes survive the power cut — the durable prefix always does; the unsynced
// tail survives fully, partially (torn at a seeded offset), or not at all,
// with equal probability. The choice sequence is deterministic per seed and
// call order.
func (in *Injector) KeepBytes(durable, size int64) int64 {
	if size < durable {
		size = durable
	}
	if size == durable {
		return durable
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	switch in.next() % 3 {
	case 0: // clean cut at the sync boundary
		return durable
	case 1: // torn tail
		return durable + int64(in.next()%uint64(size-durable+1))
	default: // the whole tail made it out of the cache
		return size
	}
}
