package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"pmblade/bench/gen"
	"pmblade/internal/clock"
)

// fingerprint describes the host and the run, so numbers from different
// machines or commits are not compared by accident.
func fingerprint(w workload, seed int64, seconds int, spec gen.Spec) string {
	return fmt.Sprintf("commit=%s go=%s nproc=%d GOMAXPROCS=%d cpu=%q seed=%d seconds=%d "+
		"devices=pmem.OptaneProfile+ssd.NVMeProfile flush=background wal=on clients=1 "+
		"records=%d value_bytes=%d ops=%d tail=%d pm_bytes=%d memtable_bytes=%d cache_bytes=%d partitions=%d",
		commit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), seed, seconds,
		spec.Records, w.valueBytes, spec.Ops, spec.Tail, w.pmBytes, w.memtable, w.cache, w.partitions)
}

// commit reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown".
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(".git/" + ref)
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(b))
	}
	if len(s) > 12 {
		s = s[:12]
	}
	return s
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// The host reference kernels: a fixed compute-bound loop and a fixed
// pointer chase through a buffer larger than the last-level cache share of
// one core. They run at every round boundary of the traced run and are
// printed beside the numbers to show host drift; nothing is scaled by them.
const (
	cpuKernelIters = 400_000
	memKernelSlots = 1 << 21 // 8 MiB of int32
	memKernelSteps = 50_000
)

var (
	memKernelRing []int32
	kernelSink    uint64
)

func hostKernels() (cpuMs, memMs float64) {
	if memKernelRing == nil {
		// One cycle through every slot with a stride far beyond a page.
		memKernelRing = make([]int32, memKernelSlots)
		const stride = 1_000_003 // odd, so coprime with the power-of-two length
		for i := range memKernelRing {
			memKernelRing[i] = int32((i + stride) % memKernelSlots)
		}
	}
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < cpuKernelIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	cpu := time.Since(start)
	start = time.Now()
	p := int32(x % memKernelSlots)
	for i := 0; i < memKernelSteps; i++ {
		p = memKernelRing[p]
	}
	mem := time.Since(start)
	kernelSink += x + uint64(p)
	return float64(cpu) / 1e6, float64(mem) / 1e6
}

// The simulated devices wait out latencies below 2 µs (every PM access) in
// a busy loop whose rate clock.Calibrate measures once per process, from a
// single reading of about 50 µs. On a shared host that reading can be off by
// a factor of two or more — a 300 ns PM read was seen charged 130 ns to
// 1.5 µs from one process to the next — which was the largest source of
// run-to-run noise on the PM-bound metrics. The benchmark therefore
// calibrates once itself, at process start and before the first Open: on a
// warm CPU, repeating until a 300 ns wait takes 300 ns by the wall clock
// within clockTolerance. It does not touch the rate again; drift during the
// run shows as the overshoot printed at the end and as pmem.spin_overshoot.
const (
	clockTolerance = 0.02
	clockTries     = 25
)

// clockOvershoot is wall time over charged time for 300 ns waits: the least
// of five bursts, because contention for the CPU only ever adds time.
func clockOvershoot() float64 {
	const wait, spins = 300 * time.Nanosecond, 4000
	least := math.Inf(1)
	for burst := 0; burst < 5; burst++ {
		start := time.Now()
		for i := 0; i < spins; i++ {
			clock.Spin(wait)
		}
		least = math.Min(least, float64(time.Since(start))/float64(spins*wait))
	}
	return least
}

// calibrateClock leaves the devices' busy-wait loop within clockTolerance of
// the wall clock and returns the overshoot it ended with.
func calibrateClock() float64 {
	over := math.Inf(1)
	for try := 0; try < clockTries; try++ {
		// Ten milliseconds of work first, so the reading is not taken on a
		// core that is still speeding up.
		for start := time.Now(); time.Since(start) < 10*time.Millisecond; {
			clock.Spin(time.Microsecond)
		}
		clock.Calibrate()
		if over = clockOvershoot(); math.Abs(over-1) <= clockTolerance {
			break
		}
	}
	return over
}
