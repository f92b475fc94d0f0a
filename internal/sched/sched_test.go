package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmblade/internal/device"
	"pmblade/internal/ssd"
)

// busyWork burns roughly d of CPU inside a Compute section.
func busyWork(d time.Duration) {
	end := time.Now().Add(d)
	x := 0
	for time.Now().Before(end) {
		x++
	}
	_ = x
}

func TestAllModesCompleteAllTasks(t *testing.T) {
	for _, mode := range []Mode{ModeThread, ModeCoroutine, ModePMBlade} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			dev := ssd.New(ssd.FastProfile)
			f := dev.Create()
			p := NewPool(mode, 2, 4, dev)
			var done atomic.Int64
			var tasks []Task
			for i := 0; i < 8; i++ {
				tasks = append(tasks, func(ctx *Ctx) {
					for j := 0; j < 3; j++ {
						ctx.Read(func() { _ = dev.Size(f) })
						ctx.Compute(func() { busyWork(100 * time.Microsecond) })
						ctx.Write(func() {
							if _, err := dev.Append(f, []byte("block"), device.CauseMajor); err != nil {
								t.Error(err)
							}
						})
					}
					done.Add(1)
				})
			}
			p.Run(tasks)
			if done.Load() != 8 {
				t.Fatalf("%v: %d tasks completed, want 8", mode, done.Load())
			}
			// All writes landed (8 tasks * 3 writes * 5 bytes).
			if dev.Size(f) != 8*3*5 {
				t.Fatalf("%v: file size %d, want %d", mode, dev.Size(f), 8*3*5)
			}
		})
	}
}

func TestWritesOrderedPerCtx(t *testing.T) {
	// Under ModePMBlade writes are asynchronous but must retain per-task
	// order (the SSTable builder depends on it).
	dev := ssd.New(ssd.FastProfile)
	f := dev.Create()
	p := NewPool(ModePMBlade, 1, 4, dev)
	p.Run([]Task{func(ctx *Ctx) {
		for i := byte(0); i < 50; i++ {
			i := i
			ctx.Write(func() {
				if _, err := dev.Append(f, []byte{i}, device.CauseMajor); err != nil {
					t.Error(err)
				}
			})
		}
		ctx.Drain()
	}})
	buf := make([]byte, 50)
	if err := dev.ReadAt(f, 0, buf, device.CauseClientRead); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if buf[i] != byte(i) {
			t.Fatalf("write order violated at %d: %v", i, buf[:10])
		}
	}
}

func TestKDerivation(t *testing.T) {
	cases := []struct{ q, c, want int }{
		{8, 2, 4},
		{4, 2, 2},
		{1, 4, 1}, // floor < 1 clamps to 1
		{9, 2, 4},
	}
	for _, tc := range cases {
		p := NewPool(ModePMBlade, tc.c, tc.q, nil)
		if p.K() != tc.want {
			t.Errorf("k(q=%d,c=%d) = %d want %d", tc.q, tc.c, p.K(), tc.want)
		}
	}
}

func TestCPUBusyAccounting(t *testing.T) {
	p := NewPool(ModeCoroutine, 1, 2, nil)
	p.Run([]Task{func(ctx *Ctx) {
		ctx.Compute(func() { busyWork(2 * time.Millisecond) })
	}})
	if p.CPUBusy() < time.Millisecond {
		t.Fatalf("CPU busy %v not accounted", p.CPUBusy())
	}
	p.ResetCPUBusy()
	if p.CPUBusy() != 0 {
		t.Fatal("reset failed")
	}
}

func TestCoroutineSerializesComputePerWorker(t *testing.T) {
	// One worker, two coroutines: compute sections must never overlap.
	p := NewPool(ModeCoroutine, 1, 2, nil)
	var inCompute atomic.Int64
	var overlaps atomic.Int64
	mk := func() Task {
		return func(ctx *Ctx) {
			for i := 0; i < 20; i++ {
				ctx.Compute(func() {
					if inCompute.Add(1) > 1 {
						overlaps.Add(1)
					}
					busyWork(50 * time.Microsecond)
					inCompute.Add(-1)
				})
				ctx.Read(func() { time.Sleep(time.Microsecond) })
			}
		}
	}
	p.Run([]Task{mk(), mk()})
	if overlaps.Load() > 0 {
		t.Fatalf("%d compute overlaps on a single worker", overlaps.Load())
	}
}

func TestPMBladeOverlapsComputeAndWrites(t *testing.T) {
	// With a slow device, PMBlade's async flush coroutine should let compute
	// finish well before all writes complete; thread mode blocks on each.
	slow := ssd.Profile{WriteLatency: 2 * time.Millisecond, Parallelism: 1}
	run := func(mode Mode) time.Duration {
		dev := ssd.New(slow)
		f := dev.Create()
		p := NewPool(mode, 1, 2, dev)
		start := time.Now()
		var computeDone time.Duration
		p.Run([]Task{func(ctx *Ctx) {
			for i := 0; i < 5; i++ {
				ctx.Compute(func() { busyWork(200 * time.Microsecond) })
				ctx.Write(func() {
					if _, err := dev.Append(f, []byte("b"), device.CauseMajor); err != nil {
						t.Error(err)
					}
				})
			}
			computeDone = time.Since(start)
		}})
		return computeDone
	}
	sync := run(ModeThread)
	async := run(ModePMBlade)
	if async >= sync {
		t.Fatalf("PMBlade compute phase (%v) should finish before Thread (%v)", async, sync)
	}
}

func TestAdmissionDoesNotDeadlock(t *testing.T) {
	// qMax=1 with a busy device: admission must still make progress.
	dev := ssd.New(ssd.Profile{WriteLatency: 500 * time.Microsecond, Parallelism: 1})
	f := dev.Create()
	p := NewPool(ModePMBlade, 1, 1, dev)
	donec := make(chan struct{})
	go func() {
		p.Run([]Task{func(ctx *Ctx) {
			for i := 0; i < 10; i++ {
				ctx.Write(func() {
					if _, err := dev.Append(f, []byte("x"), device.CauseMajor); err != nil {
						t.Error(err)
					}
				})
			}
			ctx.Drain()
		}})
		close(donec)
	}()
	select {
	case <-donec:
	case <-time.After(10 * time.Second):
		t.Fatal("admission policy deadlocked")
	}
	if dev.Size(f) != 10 {
		t.Fatalf("size %d want 10", dev.Size(f))
	}
}

func TestMoreTasksThanSlots(t *testing.T) {
	p := NewPool(ModeCoroutine, 2, 4, nil)
	var done atomic.Int64
	var tasks []Task
	for i := 0; i < 50; i++ { // far more than workers*k = 8
		tasks = append(tasks, func(ctx *Ctx) {
			ctx.Compute(func() {})
			done.Add(1)
		})
	}
	p.Run(tasks)
	if done.Load() != 50 {
		t.Fatalf("completed %d/50", done.Load())
	}
}

// TestAdmissionDefersWritesUnderClientLoad verifies the q_flush policy: when
// client I/O saturates the device (q_cli high), the flush coroutine holds
// back pending S3s until pressure drops.
func TestAdmissionDefersWritesUnderClientLoad(t *testing.T) {
	dev := ssd.New(ssd.Profile{
		ReadLatency:  2 * time.Millisecond,
		WriteLatency: 200 * time.Microsecond,
		Parallelism:  4,
	})
	f := dev.Create()
	// Saturate the device with "client" reads: q_cli ~= 4 for ~10ms.
	var cli sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		cli.Add(1)
		go func() {
			defer cli.Done()
			buf := make([]byte, 1)
			if _, err := dev.Append(f, []byte("x"), device.CauseClientWrite); err != nil {
				t.Error(err)
			}
			for {
				select {
				case <-stop:
					return
				default:
					if err := dev.ReadAt(f, 0, buf, device.CauseClientRead); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	// Give the client load a moment to build queue depth.
	for dev.QueueDepth() < 3 {
		time.Sleep(100 * time.Microsecond)
	}

	p := NewPool(ModePMBlade, 1, 4, dev)
	writeDone := make(chan time.Duration, 1)
	start := time.Now()
	go p.Run([]Task{func(ctx *Ctx) {
		ctx.Write(func() {
			if _, err := dev.Append(f, []byte("deferred"), device.CauseMajor); err != nil {
				t.Error(err)
			}
		})
		ctx.Drain()
		writeDone <- time.Since(start)
	}})
	d := <-writeDone
	close(stop)
	cli.Wait()
	// The write waited for admission at least one policy poll; with the
	// device saturated by 4 client readers at 2ms each, issue should have
	// been deferred measurably (not instant).
	if d < 200*time.Microsecond {
		t.Fatalf("write admitted in %v despite saturated device", d)
	}
}

// TestFanTasksMayNestRun is the eviction pipeline's shape: each Fan task
// (one per victim partition) launches its own staged Run for the victim's
// range subtasks. Every nested task must complete and writes must drain, in
// every mode.
func TestFanTasksMayNestRun(t *testing.T) {
	for _, mode := range []Mode{ModeThread, ModeCoroutine, ModePMBlade} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			dev := ssd.New(ssd.Profile{})
			p := NewPool(mode, 2, 4, dev)
			const victims, subtasks = 3, 4
			var compute, writes atomic.Int64
			p.Fan(victims, func(int) {
				tasks := make([]Task, subtasks)
				for i := range tasks {
					tasks[i] = func(ctx *Ctx) {
						ctx.Compute(func() { compute.Add(1) })
						ctx.Write(func() { writes.Add(1) })
						ctx.Drain()
					}
				}
				p.Run(tasks)
			})
			if got := compute.Load(); got != victims*subtasks {
				t.Fatalf("compute sections run = %d, want %d", got, victims*subtasks)
			}
			if got := writes.Load(); got != victims*subtasks {
				t.Fatalf("write sections run = %d, want %d", got, victims*subtasks)
			}
		})
	}
}

// TestFanBoundedAndComplete: every index runs exactly once, and never more
// than workers × k of them at a time, in every mode. The bound is checked on
// a count of running tasks; a barrier holds the first wave inside fn until
// it is full, so the count is reached by construction, not by timing.
func TestFanBoundedAndComplete(t *testing.T) {
	for _, mode := range []Mode{ModeThread, ModeCoroutine, ModePMBlade} {
		p := NewPool(mode, 2, 4, nil) // k = 2: four goroutines at most
		const n, bound = 23, 4
		var ran [n]atomic.Int32
		var running, peak atomic.Int32
		var wave sync.WaitGroup
		wave.Add(bound)
		var arrived atomic.Int32
		p.Fan(n, func(i int) {
			r := running.Add(1)
			for m := peak.Load(); r > m && !peak.CompareAndSwap(m, r); m = peak.Load() {
			}
			if arrived.Add(1) <= bound {
				wave.Done()
				wave.Wait()
			}
			ran[i].Add(1)
			running.Add(-1)
		})
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("%v: fn(%d) ran %d times", mode, i, got)
			}
		}
		if got := peak.Load(); got != bound {
			t.Fatalf("%v: %d tasks ran at once, want exactly the bound %d", mode, got, bound)
		}
	}
	ran := 0
	NewPool(ModePMBlade, 2, 4, nil).Fan(0, func(int) { ran++ })
	NewPool(ModePMBlade, 2, 4, nil).Fan(1, func(int) { ran++ })
	if ran != 1 {
		t.Fatalf("Fan(0) + Fan(1) ran fn %d times, want 1", ran)
	}
}
