package pmem

import (
	"bytes"
	"testing"

	"pmblade/internal/device"
)

func TestAllocWriteRead(t *testing.T) {
	d := New(1<<20, FastProfile)
	addr, err := d.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello persistent world")
	if err := d.WriteAt(addr, 0, data, device.CauseFlush); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := d.ReadAt(addr, 0, got, device.CauseClientRead); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q", got)
	}
}

func TestAllocOutOfSpace(t *testing.T) {
	d := New(1024, FastProfile) // 800 bytes occupy four of its four lines
	if _, err := d.Alloc(800); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Alloc(300); err != ErrOutOfSpace {
		t.Fatalf("expected ErrOutOfSpace, got %v", err)
	}
}

func TestReleaseFreesAccounting(t *testing.T) {
	d := New(1000, FastProfile)
	a, err := d.Alloc(600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Alloc(600); err != ErrOutOfSpace {
		t.Fatal("should be full")
	}
	d.Release(a)
	if d.Used() != 0 {
		t.Fatalf("Used = %d after release", d.Used())
	}
	if _, err := d.Alloc(600); err != nil {
		t.Fatalf("alloc after release: %v", err)
	}
}

func TestViewZeroCopy(t *testing.T) {
	d := New(1<<20, FastProfile)
	addr, err := d.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt(addr, 0, []byte("abcdef"), device.CauseFlush); err != nil {
		t.Fatal(err)
	}
	v, err := d.View(addr, 2, 3, device.CauseClientRead)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "cde" {
		t.Fatalf("view = %q", v)
	}
}

func TestBoundsChecks(t *testing.T) {
	d := New(1<<20, FastProfile)
	addr, err := d.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt(addr, 8, []byte("too long"), device.CauseFlush); err == nil {
		// Note: region overrun beyond the arena is the hard boundary; writes
		// within the arena but past a region succeed (like real PM). Only
		// out-of-arena access must fail.
		t.Log("write beyond region allowed (arena not exceeded)")
	}
	big := New(LineSize, FastProfile)
	a2, err := big.Alloc(50)
	if err != nil {
		t.Fatal(err)
	}
	if err := big.ReadAt(a2, LineSize-5, make([]byte, 10), device.CauseClientRead); err == nil {
		t.Fatal("read past arena must fail")
	}
	if err := big.WriteAt(a2, -1, []byte{1}, device.CauseFlush); err == nil {
		t.Fatal("negative offset must fail")
	}
}

func TestFlushPersistence(t *testing.T) {
	d := New(1<<20, FastProfile)
	addr, err := d.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	if d.Persisted(addr) {
		t.Fatal("unflushed region must not be persisted")
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if !d.Persisted(addr) {
		t.Fatal("flushed region must be persisted")
	}
	if d.Persisted(Addr(9999)) {
		t.Fatal("unknown region must not be persisted")
	}
}

func TestStatsAttribution(t *testing.T) {
	d := New(1<<20, FastProfile)
	addr, err := d.Alloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt(addr, 0, make([]byte, 500), device.CauseInternal); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadAt(addr, 0, make([]byte, 200), device.CauseClientRead); err != nil {
		t.Fatal(err)
	}
	if d.Stats().WriteBytes(device.CauseInternal) != 500 {
		t.Fatalf("internal write bytes = %d", d.Stats().WriteBytes(device.CauseInternal))
	}
	if d.Stats().ReadBytes(device.CauseClientRead) != 200 {
		t.Fatalf("client read bytes = %d", d.Stats().ReadBytes(device.CauseClientRead))
	}
	if d.Stats().TotalWriteBytes() != 500 {
		t.Fatalf("total writes = %d", d.Stats().TotalWriteBytes())
	}
}

func TestSizeOfRegion(t *testing.T) {
	d := New(1<<20, FastProfile)
	addr, err := d.Alloc(77)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size(addr) != 77 {
		t.Fatalf("Size = %d", d.Size(addr))
	}
	if d.Size(Addr(12345)) != -1 {
		t.Fatal("unknown region should report -1")
	}
}

// TestAllocLineAligned: every region starts on a line and occupies whole
// lines, whatever sizes were allocated and released before it — readers
// derive the line a byte sits in from its offset in the region alone.
func TestAllocLineAligned(t *testing.T) {
	d := New(1<<20, FastProfile)
	var used int64
	for i, n := range []int{1, 255, 256, 257, 26, 4096, 100_003, 7} {
		addr, err := d.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		if addr%LineSize != 0 {
			t.Errorf("Alloc #%d (%d bytes) = %d, not %d-aligned", i, n, addr, LineSize)
		}
		if d.Size(addr) != int64(n) {
			t.Errorf("Size = %d want %d", d.Size(addr), n)
		}
		used += (int64(n) + LineSize - 1) / LineSize * LineSize
		if d.Used() != used {
			t.Errorf("after Alloc(%d): Used = %d want %d whole lines", n, d.Used(), used)
		}
		if i%3 == 1 {
			d.Release(addr)
			used -= (int64(n) + LineSize - 1) / LineSize * LineSize
		}
	}
	if d.Used() != used {
		t.Errorf("Used = %d want %d", d.Used(), used)
	}
}
