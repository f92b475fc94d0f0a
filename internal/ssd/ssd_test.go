package ssd

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"pmblade/internal/device"
	"pmblade/internal/fault"
)

func TestCreateAppendRead(t *testing.T) {
	d := New(FastProfile)
	f := d.Create()
	off1, err := d.Append(f, []byte("hello "), device.CauseFlush)
	if err != nil || off1 != 0 {
		t.Fatalf("append1: %d %v", off1, err)
	}
	off2, err := d.Append(f, []byte("world"), device.CauseFlush)
	if err != nil || off2 != 6 {
		t.Fatalf("append2: %d %v", off2, err)
	}
	buf := make([]byte, 11)
	if err := d.ReadAt(f, 0, buf, device.CauseClientRead); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte("hello world")) {
		t.Fatalf("read %q", buf)
	}
	if d.Size(f) != 11 {
		t.Fatalf("size = %d", d.Size(f))
	}
}

func TestReadBounds(t *testing.T) {
	d := New(FastProfile)
	f := d.Create()
	if _, err := d.Append(f, []byte("abc"), device.CauseFlush); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadAt(f, 2, make([]byte, 5), device.CauseClientRead); err == nil {
		t.Fatal("read past EOF must fail")
	}
	if err := d.ReadAt(f, -1, make([]byte, 1), device.CauseClientRead); err == nil {
		t.Fatal("negative offset must fail")
	}
}

func TestUnknownFile(t *testing.T) {
	d := New(FastProfile)
	if _, err := d.Append(FileID(99), []byte("x"), device.CauseFlush); err != ErrNotFound {
		t.Fatalf("append: %v", err)
	}
	if err := d.ReadAt(FileID(99), 0, make([]byte, 1), device.CauseClientRead); err != ErrNotFound {
		t.Fatalf("read: %v", err)
	}
	if err := d.Sync(FileID(99)); err != ErrNotFound {
		t.Fatalf("sync: %v", err)
	}
	if d.Size(FileID(99)) != -1 {
		t.Fatal("size of unknown file should be -1")
	}
}

func TestDeleteFreesSpace(t *testing.T) {
	d := New(FastProfile)
	f := d.Create()
	if _, err := d.Append(f, make([]byte, 1000), device.CauseFlush); err != nil {
		t.Fatal(err)
	}
	if d.UsedBytes() != 1000 {
		t.Fatalf("used = %d", d.UsedBytes())
	}
	d.Delete(f)
	if d.UsedBytes() != 0 {
		t.Fatalf("used after delete = %d", d.UsedBytes())
	}
}

func TestLatencyGrowsWithContention(t *testing.T) {
	// With parallelism 2 and 8 concurrent writers, queueing should push
	// end-to-end latency well above the raw service time.
	p := Profile{WriteLatency: 2 * time.Millisecond, Parallelism: 2}
	d := New(p)
	f := d.Create()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.Append(f, []byte("x"), device.CauseMajor); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// 8 ops, 2 at a time, 2ms each => last waits ~6ms. Mean must exceed the
	// uncontended 2ms service time.
	if mean := d.IOLatency().Mean(); mean <= 2*time.Millisecond {
		t.Fatalf("mean latency %v does not show queueing", mean)
	}
	if d.IOLatency().Count() != 8 {
		t.Fatalf("latency count = %d", d.IOLatency().Count())
	}
}

func TestBusyTimeAccrues(t *testing.T) {
	p := Profile{WriteLatency: time.Millisecond, Parallelism: 4}
	d := New(p)
	f := d.Create()
	for i := 0; i < 5; i++ {
		if _, err := d.Append(f, []byte("x"), device.CauseFlush); err != nil {
			t.Fatal(err)
		}
	}
	if busy := d.Stats().BusyTime(); busy < 5*time.Millisecond {
		t.Fatalf("busy time %v < 5ms", busy)
	}
}

func TestQueueDepthReturnsToZero(t *testing.T) {
	d := New(FastProfile)
	f := d.Create()
	if _, err := d.Append(f, []byte("x"), device.CauseFlush); err != nil {
		t.Fatal(err)
	}
	if qd := d.QueueDepth(); qd != 0 {
		t.Fatalf("queue depth = %d after quiesce", qd)
	}
}

func TestWriteAttribution(t *testing.T) {
	d := New(FastProfile)
	f := d.Create()
	if _, err := d.Append(f, make([]byte, 100), device.CauseMajor); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append(f, make([]byte, 50), device.CauseWAL); err != nil {
		t.Fatal(err)
	}
	if d.Stats().WriteBytes(device.CauseMajor) != 100 {
		t.Fatal("major bytes wrong")
	}
	if d.Stats().WriteBytes(device.CauseWAL) != 50 {
		t.Fatal("wal bytes wrong")
	}
}

// TestTruncateErrorPropagation: injected failures on the truncate failpoint
// surface to the caller and leave the file untouched; the device recovers
// once the fault clears.
func TestTruncateErrorPropagation(t *testing.T) {
	d := New(FastProfile)
	in := fault.New(3)
	d.SetFault(in)
	f := d.Create()
	if _, err := d.Append(f, []byte("0123456789"), device.CauseFlush); err != nil {
		t.Fatal(err)
	}

	in.FailPoint(fault.SSDTruncate, 1, fault.Decision{Err: fault.ErrPermanent})
	if err := d.Truncate(f, 4); !errors.Is(err, fault.ErrPermanent) {
		t.Fatalf("truncate under permanent fault: %v", err)
	}
	if d.Size(f) != 10 {
		t.Fatalf("failed truncate must not shorten the file: size=%d", d.Size(f))
	}

	in.FailPoint(fault.SSDTruncate, 1, fault.Decision{Err: fault.ErrTransient})
	if err := d.Truncate(f, 4); !errors.Is(err, fault.ErrTransient) {
		t.Fatalf("truncate under transient fault: %v", err)
	}

	if err := d.Truncate(f, 4); err != nil {
		t.Fatalf("truncate after faults cleared: %v", err)
	}
	if d.Size(f) != 4 {
		t.Fatalf("truncate applied wrong size: %d", d.Size(f))
	}
	// Out-of-range and missing-file errors propagate without the injector too.
	if err := d.Truncate(f, 99); err == nil {
		t.Fatal("truncate beyond EOF must fail")
	}
	if err := d.Truncate(FileID(9999), 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("truncate of missing file: %v", err)
	}
}

// batchFile returns a device with profile p (which charges reads only, so
// writing the file costs nothing) holding one file of n pages; page i is
// filled with byte(i).
func batchFile(t *testing.T, p Profile, n int) (*Device, FileID) {
	t.Helper()
	d := New(p)
	f := d.Create()
	data := make([]byte, n*PageSize)
	for i := range data {
		data[i] = byte(i / PageSize)
	}
	if _, err := d.Append(f, data, device.CauseMajor); err != nil {
		t.Fatal(err)
	}
	return d, f
}

// TestMapBatchEqualsMapAts: a batch returns the bytes, and charges the
// counters, of the same reads issued one by one.
func TestMapBatchEqualsMapAts(t *testing.T) {
	p := Profile{ReadLatency: 50 * time.Microsecond, ReadBandwidth: 1 << 30, Parallelism: 4}
	one, f := batchFile(t, p, 16)
	all, _ := batchFile(t, p, 16)
	reqs := make([]MapReq, 0, 9)
	for i := 0; i < 9; i++ {
		// Mixed sizes, unaligned, two of them the same range.
		reqs = append(reqs, MapReq{File: f, Off: int64(i%8) * (PageSize + 100), Len: 300 + i*PageSize/2})
	}
	all.MapBatch(reqs, device.CauseClientRead)
	for i, r := range reqs {
		want, err := one.MapAt(r.File, r.Off, r.Len, device.CauseClientRead)
		if err != nil || r.Err != nil {
			t.Fatalf("req %d: MapAt err %v, MapBatch err %v", i, err, r.Err)
		}
		if !bytes.Equal(r.Data, want) {
			t.Fatalf("req %d: MapBatch bytes differ from MapAt", i)
		}
	}
	a, b := all.Stats(), one.Stats()
	if a.ReadOps(device.CauseClientRead) != b.ReadOps(device.CauseClientRead) ||
		a.ReadBytes(device.CauseClientRead) != b.ReadBytes(device.CauseClientRead) ||
		a.TotalReadBytes() != b.TotalReadBytes() || a.BusyTime() != b.BusyTime() {
		t.Fatalf("batch charged ops=%d bytes=%d busy=%v, one by one ops=%d bytes=%d busy=%v",
			a.ReadOps(device.CauseClientRead), a.TotalReadBytes(), a.BusyTime(),
			b.ReadOps(device.CauseClientRead), b.TotalReadBytes(), b.BusyTime())
	}
	if all.IOLatency().Count() != one.IOLatency().Count() {
		t.Fatalf("latency samples: batch %d, one by one %d", all.IOLatency().Count(), one.IOLatency().Count())
	}
	if qd := all.QueueDepth(); qd != 0 {
		t.Fatalf("queue depth %d after the batch returned", qd)
	}
}

// TestMapBatchOverlapsWaiting: eight 10 ms reads on eight slots take about
// one service time, not eight. The bound is four service times — a 4x margin
// either way, so scheduling noise cannot decide the test.
func TestMapBatchOverlapsWaiting(t *testing.T) {
	const lat = 10 * time.Millisecond
	d, f := batchFile(t, Profile{ReadLatency: lat, Parallelism: 8}, 8)
	reqs := make([]MapReq, 8)
	for i := range reqs {
		reqs[i] = MapReq{File: f, Off: int64(i) * PageSize, Len: PageSize}
	}
	start := time.Now()
	d.MapBatch(reqs, device.CauseClientRead)
	wall := time.Since(start)
	if busy := d.Stats().BusyTime(); busy != 8*lat {
		t.Fatalf("charged %v, want %v: overlapping must not change what is charged", busy, 8*lat)
	}
	if wall < lat || wall > 4*lat {
		t.Fatalf("batch of 8 x %v took %v, want about %v (one by one: %v)", lat, wall, lat, 8*lat)
	}
}

// TestMapBatchErrorsAreIndividual: a bad request fails alone, and all the
// others have completed when MapBatch returns — with no read latency and with
// reads booked on the queue.
func TestMapBatchErrorsAreIndividual(t *testing.T) {
	for _, p := range []Profile{{Parallelism: 2}, {ReadLatency: 20 * time.Microsecond, Parallelism: 2}} {
		d, f := batchFile(t, p, 4)
		reqs := []MapReq{
			{File: f, Off: 0, Len: PageSize},
			{File: f, Off: 3 * PageSize, Len: 2 * PageSize}, // runs off the end
			{File: f + 99, Off: 0, Len: 1},                  // no such file
			{File: f, Off: 2 * PageSize, Len: PageSize},
		}
		d.MapBatch(reqs, device.CauseScrub)
		if reqs[1].Err == nil || reqs[1].Data != nil || !errors.Is(reqs[2].Err, ErrNotFound) {
			t.Fatalf("bad requests: %v, %v", reqs[1].Err, reqs[2].Err)
		}
		for _, i := range []int{0, 3} {
			if reqs[i].Err != nil || len(reqs[i].Data) != PageSize || reqs[i].Data[0] != byte(reqs[i].Off/PageSize) {
				t.Fatalf("good request %d: err %v, %d bytes", i, reqs[i].Err, len(reqs[i].Data))
			}
		}
		if ops := d.Stats().ReadOps(device.CauseScrub); ops != 2 {
			t.Fatalf("read ops = %d, want the 2 good requests", ops)
		}
	}
	New(FastProfile).MapBatch(nil, device.CauseClientRead) // empty batch: nothing to do
}

// TestBatchIsABookedQueue: five 10 ms reads on two channels complete in
// booking order at 10, 10, 20, 20 and 30 ms, and the latency histogram holds
// exactly those queue-plus-service times. The caller's goroutine is the only
// one that waits: the batch starts none of its own. The completion order and
// the recorded latencies are exact; the wall-clock instants are only bounded
// below exactly, and above generously.
func TestBatchIsABookedQueue(t *testing.T) {
	const lat = 10 * time.Millisecond
	d, f := batchFile(t, Profile{ReadLatency: lat, Parallelism: 2}, 5)
	reqs := make([]MapReq, 5)
	for i := range reqs {
		reqs[i] = MapReq{File: f, Off: int64(i) * PageSize, Len: PageSize}
	}
	baseline := runtime.NumGoroutine()
	var order []int
	var at []time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		start := time.Now()
		b := d.Submit(reqs, device.CauseClientRead)
		for i := b.Next(); i >= 0; i = b.Next() {
			order = append(order, i)
			at = append(at, time.Since(start))
		}
	}()
	most := 0
	for waiting := true; waiting; {
		select {
		case <-done:
			waiting = false
		case <-time.After(time.Millisecond):
			most = max(most, runtime.NumGoroutine())
		}
	}
	if most > baseline+1 {
		t.Fatalf("%d goroutines while the batch waited, baseline %d: the batch must wait on its caller only", most, baseline)
	}
	want := []time.Duration{lat, lat, 2 * lat, 2 * lat, 3 * lat}
	for k, i := range order {
		if i != k {
			t.Fatalf("completion order %v, want booking order", order)
		}
		if at[k] < want[k] || at[k] > want[k]+25*time.Millisecond {
			t.Fatalf("read %d completed at %v, want about %v (all: %v)", k, at[k], want[k], at)
		}
		if reqs[k].Err != nil || reqs[k].Data[0] != byte(k) {
			t.Fatalf("read %d: err %v", k, reqs[k].Err)
		}
	}
	if len(order) != 5 {
		t.Fatalf("%d completions, want 5", len(order))
	}
	h := d.IOLatency()
	if h.Count() != 5 || h.Min() != lat || h.Max() != 3*lat || h.Mean() != 18*time.Millisecond {
		t.Fatalf("latencies: %d samples, min %v, max %v, mean %v; want 5, 10ms, 30ms, 18ms",
			h.Count(), h.Min(), h.Max(), h.Mean())
	}
	if busy := d.Stats().BusyTime(); busy != 5*lat {
		t.Fatalf("busy %v, want %v", busy, 5*lat)
	}
	if qd := d.QueueDepth(); qd != 0 {
		t.Fatalf("queue depth %d after the batch completed", qd)
	}
}
