// Package sched implements the three compaction execution models the paper
// compares (Section V):
//
//   - ModeThread: one OS-scheduled goroutine per task; compute sections
//     contend for c CPU slots, I/O is issued inline. This models RocksDB's
//     thread-based compaction, where the scheduler "strives to maximize
//     fairness and cares less about CPU and I/O utilization".
//   - ModeCoroutine: c worker threads, each running k cooperative coroutines
//     that hand off the worker's run token whenever they block on I/O — the
//     basic coroutine policy.
//   - ModePMBlade: ModeCoroutine plus the paper's two refinements. A
//     dedicated flush coroutine per worker executes every S3 (write) stage so
//     sort stages are never fragmented by writes, and an admission policy
//     q_flush = max(q − q_comp − q_cli, 0) issues pending writes only while
//     the I/O device has spare concurrency, smoothing bursty contention.
//
// Tasks express their structure through the Ctx passed to them: Compute for
// S2 sections, Read for S1, Write for S3 (asynchronous under ModePMBlade).
// CPU busy time is accounted whenever a compute slot is held, so experiments
// report measured — not asserted — utilization.
package sched

import (
	"sync"
	"sync/atomic"
	"time"

	"pmblade/internal/ssd"
)

// Mode selects the execution model.
type Mode int

// The three models of Figure 9.
const (
	ModeThread Mode = iota
	ModeCoroutine
	ModePMBlade
)

// String names the mode as the paper's figures do.
func (m Mode) String() string {
	switch m {
	case ModeThread:
		return "Thread"
	case ModeCoroutine:
		return "Coroutine"
	case ModePMBlade:
		return "PMBlade"
	default:
		return "Unknown"
	}
}

// Task is one compaction subtask. It drives its stages through ctx.
type Task func(ctx *Ctx)

// Pool executes tasks under one of the three models.
type Pool struct {
	mode    Mode
	workers int // c: CPU cores used
	k       int // compaction coroutines per worker
	qMax    int // q: max concurrent I/O the device tolerates
	dev     *ssd.Device

	cpuBusy atomic.Int64 // ns of compute-slot hold time
	qComp   atomic.Int64 // in-flight compaction I/Os issued through this pool

	bgMu     sync.Mutex // guards the background-worker fields below
	bgQ      chan Task
	bgWG     sync.WaitGroup
	bgClosed bool
}

// NewPool creates a pool with c workers and I/O budget q. k is derived as
// max{⌊q/c⌋, 1} per Section V-C. dev is consulted for the current I/O queue
// depth (q_comp + q_cli) by the admission policy; it may be nil for
// CPU-only tests.
func NewPool(mode Mode, workers, qMax int, dev *ssd.Device) *Pool {
	if workers < 1 {
		workers = 1
	}
	if qMax < 1 {
		qMax = 1
	}
	k := qMax / workers
	if k < 1 {
		k = 1
	}
	return &Pool{mode: mode, workers: workers, k: k, qMax: qMax, dev: dev}
}

// K reports the per-worker coroutine count k = max{⌊q/c⌋, 1}.
func (p *Pool) K() int { return p.k }

// Mode reports the pool's execution model.
func (p *Pool) Mode() Mode { return p.mode }

// CPUBusy reports accumulated compute time across all workers.
func (p *Pool) CPUBusy() time.Duration { return time.Duration(p.cpuBusy.Load()) }

// ResetCPUBusy clears the compute-time counter (per-experiment windows).
func (p *Pool) ResetCPUBusy() { p.cpuBusy.Store(0) }

// InflightCompactionIO reports q_comp.
func (p *Pool) InflightCompactionIO() int { return int(p.qComp.Load()) }

// Ctx is handed to each task; it routes the task's stages through the
// pool's scheduling policy. A Ctx is owned by one task and not safe for
// concurrent use, except that pending asynchronous writes complete in the
// background until Drain.
type Ctx struct {
	pool   *Pool
	slot   slotIface
	flushQ chan func() // ModePMBlade: the worker's flush-coroutine queue
	wg     sync.WaitGroup
}

// slotIface abstracts a CPU slot: per-worker run tokens in coroutine modes,
// any-free-core acquisition in thread mode.
type slotIface interface {
	acquire()
	release()
}

// workerSlot is the run token of one worker thread; holding it means running
// on that worker's CPU.
type workerSlot struct {
	token chan struct{}
}

func newWorkerSlot() *workerSlot {
	s := &workerSlot{token: make(chan struct{}, 1)}
	s.token <- struct{}{}
	return s
}

func (s *workerSlot) acquire() { <-s.token }
func (s *workerSlot) release() { s.token <- struct{}{} }

// Compute runs fn holding a CPU slot (an S2 stage). Cooperative: in
// coroutine modes other coroutines of the same worker cannot run
// concurrently with it.
func (c *Ctx) Compute(fn func()) {
	c.slot.acquire()
	start := time.Now()
	fn()
	c.pool.cpuBusy.Add(int64(time.Since(start)))
	c.slot.release()
}

// Read performs a blocking input I/O (an S1 stage) without holding the CPU
// slot, so sibling coroutines can compute meanwhile.
func (c *Ctx) Read(fn func()) {
	c.pool.qComp.Add(1)
	fn()
	c.pool.qComp.Add(-1)
}

// Write performs an output I/O (an S3 stage). Under ModePMBlade it is
// enqueued to the worker's flush coroutine and returns immediately; the
// write completes in the background subject to the admission policy. Under
// the other modes it blocks like Read. Writes issued through one Ctx are
// executed in order.
func (c *Ctx) Write(fn func()) {
	if c.pool.mode == ModePMBlade && c.flushQ != nil {
		c.wg.Add(1)
		c.flushQ <- func() {
			defer c.wg.Done()
			fn()
		}
		return
	}
	c.pool.qComp.Add(1)
	fn()
	c.pool.qComp.Add(-1)
}

// Drain blocks until every asynchronous write issued through this Ctx has
// completed. Tasks call it before publishing compaction results.
func (c *Ctx) Drain() { c.wg.Wait() }

// maxFlushDeferral bounds how long the admission policy may hold back a
// pending write: sustained client load must not starve flushes forever, so
// after this deadline the write is issued regardless of queue depth.
const maxFlushDeferral = 5 * time.Millisecond

// admissionWait blocks until q_flush = q − q_comp − q_cli > 0, or until the
// starvation bound expires.
func (p *Pool) admissionWait() {
	deadline := time.Now().Add(maxFlushDeferral)
	for {
		qComp := int(p.qComp.Load())
		qCli := 0
		if p.dev != nil {
			total := p.dev.QueueDepth()
			qCli = total - qComp
			if qCli < 0 {
				qCli = 0
			}
		}
		if p.qMax-qComp-qCli > 0 || !time.Now().Before(deadline) {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// maxScrubDeferral bounds how long the scrub gate may hold back a verify
// read. The scrubber is the lowest-priority I/O client — it yields to both
// compaction and foreground traffic — but a continuously busy device must
// not stall it forever or latent rot would never be found.
const maxScrubDeferral = 20 * time.Millisecond

// ScrubGate blocks while the device is busy with higher-priority work
// (compaction I/O in flight, or foreground queue depth at the device), so
// background scrub reads only ever use idle device bandwidth. Like
// admissionWait it polls at a coarse granularity and gives up after a
// starvation bound rather than waiting for a perfectly idle device.
func (p *Pool) ScrubGate() {
	deadline := time.Now().Add(maxScrubDeferral)
	for {
		qComp := int(p.qComp.Load())
		depth := 0
		if p.dev != nil {
			depth = p.dev.QueueDepth()
		}
		if depth < qComp {
			depth = qComp
		}
		if depth == 0 || !time.Now().Before(deadline) {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Submit schedules t on a background maintenance worker — the engine uses
// this for asynchronous memtable flushes (the paper's dedicated flush
// coroutine, decoupled from the foreground write path). Workers start lazily
// on the first Submit and run until CloseBackground. Reports whether the task
// was accepted; false means the background workers have been closed.
func (p *Pool) Submit(t Task) bool {
	p.bgMu.Lock()
	defer p.bgMu.Unlock()
	if p.bgClosed {
		return false
	}
	if p.bgQ == nil {
		p.bgQ = make(chan Task, 256)
		for i := 0; i < p.workers; i++ {
			p.bgWG.Add(1)
			go func() {
				defer p.bgWG.Done()
				for t := range p.bgQ {
					ctx := &Ctx{pool: p, slot: newWorkerSlot()}
					t(ctx)
					ctx.Drain()
				}
			}()
		}
	}
	// Send while holding bgMu so CloseBackground cannot close the channel
	// under an in-flight send; workers drain independently, so a full queue
	// cannot deadlock here.
	p.bgQ <- t
	return true
}

// CloseBackground stops accepting Submit tasks, waits for queued ones to
// finish, and joins the background workers. Idempotent.
func (p *Pool) CloseBackground() {
	p.bgMu.Lock()
	if p.bgClosed {
		p.bgMu.Unlock()
		return
	}
	p.bgClosed = true
	q := p.bgQ
	p.bgMu.Unlock()
	if q != nil {
		close(q)
		p.bgWG.Wait()
	}
}

// Fan runs fn(0..n-1) to completion on at most workers × k goroutines (the
// caller's among them) — the bounded fan-out of MultiGet's partition groups
// and the concurrent-victim eviction pipeline, so a wide fan-out cannot spawn
// unbounded goroutines. It is the same in every mode: fn gets no
// Ctx, so there are no stages to schedule, and client reads issued from it
// do not count toward q_comp, which the admission policy treats as
// compaction I/O. fn may itself call Run (each Run sets up its own slots and
// goroutines), which is how an evicted victim's staged compaction subtasks
// nest inside the per-victim fan-out.
func (p *Pool) Fan(n int, fn func(i int)) {
	if n == 1 {
		fn(0)
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for g := min(n, p.workers*p.k); g > 1; g-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// Run executes tasks to completion under the pool's model.
func (p *Pool) Run(tasks []Task) {
	switch p.mode {
	case ModeThread:
		p.runThread(tasks)
	default:
		p.runCoroutine(tasks)
	}
}

// runThread: every task gets its own goroutine; compute sections contend for
// `workers` CPU slots via a shared semaphore (the OS's fair timesharing, at
// stage granularity).
func (p *Pool) runThread(tasks []Task) {
	slots := make(chan *workerSlot, p.workers)
	for i := 0; i < p.workers; i++ {
		slots <- newWorkerSlot()
	}
	var wg sync.WaitGroup
	for _, t := range tasks {
		wg.Add(1)
		go func(t Task) {
			defer wg.Done()
			// A "thread" grabs whichever CPU is free for each compute burst.
			ctx := &Ctx{pool: p, slot: &sharedSlot{slots: slots}}
			t(ctx)
			ctx.Drain()
		}(t)
	}
	wg.Wait()
}

// sharedSlot adapts the thread model to the slot interface: each acquire
// takes any free CPU, modeling OS scheduling across cores.
type sharedSlot struct {
	slots chan *workerSlot
	cur   *workerSlot
}

func (s *sharedSlot) acquire() { s.cur = <-s.slots }
func (s *sharedSlot) release() { s.slots <- s.cur; s.cur = nil }

// runCoroutine: c workers, each with k compaction coroutines plus (PMBlade)
// one flush coroutine. Tasks are distributed round-robin across the
// workers' coroutines; each coroutine processes its tasks sequentially.
func (p *Pool) runCoroutine(tasks []Task) {
	type worker struct {
		slot   *workerSlot
		flushQ chan func()
	}
	workers := make([]*worker, p.workers)
	var flushWG sync.WaitGroup
	for i := range workers {
		w := &worker{slot: newWorkerSlot()}
		if p.mode == ModePMBlade {
			w.flushQ = make(chan func(), 1024)
			flushWG.Add(1)
			go func(w *worker) {
				// The flush coroutine: executes every S3 of this worker,
				// gated by the admission policy. It does not hold the CPU
				// slot — writes are device work, not compute.
				defer flushWG.Done()
				for fn := range w.flushQ {
					p.admissionWait()
					p.qComp.Add(1)
					fn()
					p.qComp.Add(-1)
				}
			}(w)
		}
		workers[i] = w
	}

	// Assign tasks round-robin to (worker, coroutine) pairs.
	nSlots := p.workers * p.k
	assignments := make([][]Task, nSlots)
	for i, t := range tasks {
		assignments[i%nSlots] = append(assignments[i%nSlots], t)
	}
	var wg sync.WaitGroup
	for si, ts := range assignments {
		if len(ts) == 0 {
			continue
		}
		w := workers[si%p.workers]
		wg.Add(1)
		go func(w *worker, ts []Task) {
			defer wg.Done()
			for _, t := range ts {
				ctx := &Ctx{pool: p, slot: w.slot, flushQ: w.flushQ}
				t(ctx)
				ctx.Drain()
			}
		}(w, ts)
	}
	wg.Wait()
	for _, w := range workers {
		if w.flushQ != nil {
			close(w.flushQ)
		}
	}
	flushWG.Wait()
}
