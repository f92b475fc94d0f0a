package wal

import (
	"errors"
	"fmt"
	"testing"

	"pmblade/internal/device"
	"pmblade/internal/fault"
	"pmblade/internal/kv"
	"pmblade/internal/pmem"
	"pmblade/internal/ssd"
)

// tailLog is a writer with a tail, on fresh devices.
func tailLog(t *testing.T) (*Writer, *pmem.Device, *ssd.Device) {
	t.Helper()
	pm, sd := pmem.New(1<<20, pmem.FastProfile), testDev()
	tail, err := NewTail(pm)
	if err != nil {
		t.Fatal(err)
	}
	return NewTailWriter(sd, tail), pm, sd
}

// entry is the seq-th entry of a log whose records all have the same size.
func entry(seq uint64) kv.Entry {
	return kv.Entry{Key: []byte(fmt.Sprintf("key-%06d", seq)), Value: []byte("value"), Seq: seq, Kind: kv.KindSet}
}

// logSeqs appends one single-entry group per sequence in [from, to] and syncs
// after each, as the commit path does.
func logSeqs(t *testing.T, w *Writer, from, to uint64) {
	t.Helper()
	for s := from; s <= to; s++ {
		if _, err := w.AppendBatches([][]kv.Entry{{entry(s)}}); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
}

// replayedSeqs replays the log of files and tail and returns the sequences in
// replay order.
func replayedSeqs(t *testing.T, sd *ssd.Device, files []ssd.FileID, tail *Tail) []uint64 {
	t.Helper()
	var seqs []uint64
	n, err := ReplayLog(sd, files, tail, func(e kv.Entry) error {
		if want := entry(e.Seq); string(e.Key) != string(want.Key) || string(e.Value) != string(want.Value) {
			return fmt.Errorf("seq %d replayed as %q=%q", e.Seq, e.Key, e.Value)
		}
		seqs = append(seqs, e.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(seqs) {
		t.Fatalf("ReplayLog reports %d entries, handed over %d", n, len(seqs))
	}
	return seqs
}

// wantSeqs fails unless got is exactly from, from+1, ..., to.
func wantSeqs(t *testing.T, got []uint64, from, to uint64) {
	t.Helper()
	if uint64(len(got)) != to-from+1 {
		t.Fatalf("replayed %d entries, want seqs %d..%d: %v", len(got), from, to, got)
	}
	for i, s := range got {
		if s != from+uint64(i) {
			t.Fatalf("replay position %d holds seq %d, want %d", i, s, from+uint64(i))
		}
	}
}

// TestTailTakesGroupsThatFit: a group that fits the tail is one PM write and
// its Sync one fence; the file is not touched.
func TestTailTakesGroupsThatFit(t *testing.T) {
	w, pm, sd := tailLog(t)
	logSeqs(t, w, 1, 100)
	if got := pm.Stats().WriteOps(device.CauseWAL); got != 100 {
		t.Fatalf("100 groups cost %d PM writes, want 100", got)
	}
	if got := sd.Stats().WriteBytes(device.CauseWAL); got != 0 || sd.Size(w.File()) != 0 {
		t.Fatalf("groups that fit the tail wrote %d bytes to the file", got)
	}
	wantSeqs(t, replayedSeqs(t, sd, []ssd.FileID{w.File()}, w.tail), 1, 100)
}

// TestTailDestagesWhenFull: a group that does not fit what is left of the
// tail first moves the tail's records to the file, so the log — file, then
// tail — replays every entry once, in sequence order, however many times it
// wrapped.
func TestTailDestagesWhenFull(t *testing.T) {
	w, _, sd := tailLog(t)
	const n = 6000 // about six tails' worth
	logSeqs(t, w, 1, n)
	if sd.Size(w.File()) == 0 {
		t.Fatal("the tail never destaged")
	}
	wantSeqs(t, replayedSeqs(t, sd, []ssd.FileID{w.File()}, w.tail), 1, n)

	// A group larger than the whole tail goes to the file, behind the tail's
	// records.
	big := make([]kv.Entry, 0, 2000)
	for s := uint64(n + 1); s <= n+2000; s++ {
		big = append(big, entry(s))
	}
	if _, err := w.AppendBatches([][]kv.Entry{big}); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	logSeqs(t, w, n+2001, n+2010)
	wantSeqs(t, replayedSeqs(t, sd, []ssd.FileID{w.File()}, w.tail), 1, n+2010)
}

// TestTailReplayStopsAtEarlierEpoch: the tail is rewritten in place from its
// start, so behind a new epoch's records lie intact records of the one
// before. Replay stops at the first record whose sequence is not above its
// predecessor's — here a record of the same size, so only that rule, not a
// checksum, can stop it.
func TestTailReplayStopsAtEarlierEpoch(t *testing.T) {
	w, _, sd := tailLog(t)
	logSeqs(t, w, 1, 500)
	if err := w.Destage(); err != nil {
		t.Fatal(err)
	}
	if seqs := replayedSeqs(t, sd, nil, w.tail); len(seqs) != 0 {
		t.Fatalf("an emptied tail replays %v", seqs)
	}
	logSeqs(t, w, 501, 503)
	wantSeqs(t, replayedSeqs(t, sd, nil, w.tail), 501, 503)
	wantSeqs(t, replayedSeqs(t, sd, []ssd.FileID{w.File()}, w.tail), 1, 503)
}

// TestTornTailAppend tears a tail write mid-record: the append reports the
// tear and replay stops before the torn record.
func TestTornTailAppend(t *testing.T) {
	w, pm, sd := tailLog(t)
	in := fault.New(3)
	pm.SetFault(in)
	logSeqs(t, w, 1, 10)
	in.FailOp(fault.PMWrite, device.CauseWAL, 1, fault.Decision{Err: fault.ErrTorn, Tear: 12})
	batch := [][]kv.Entry{{entry(11), entry(12), entry(13)}}
	if _, err := w.AppendBatches(batch); !errors.Is(err, fault.ErrTorn) {
		t.Fatalf("torn tail append = %v, want ErrTorn", err)
	}
	wantSeqs(t, replayedSeqs(t, sd, []ssd.FileID{w.File()}, w.tail), 1, 10)
}

// TestReplayLogFloor is a restart: the adopted tail's records are re-logged
// into the new writer's file, and the tail — not emptied until the manifest
// naming that file is in place — replays only above the file's last sequence,
// so nothing replays twice before or after the tail is emptied.
func TestReplayLogFloor(t *testing.T) {
	w, pm, sd := tailLog(t)
	logSeqs(t, w, 1, 40)

	tail, err := OpenTail(pm, w.tail.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var replayed []kv.Entry
	if _, err := ReplayLog(sd, []ssd.FileID{w.File()}, tail, func(e kv.Entry) error {
		replayed = append(replayed, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	re := NewTailWriter(sd, tail)
	writes := pm.Stats().WriteOps(device.CauseWAL)
	if _, err := re.AppendBatches([][]kv.Entry{replayed}); err != nil {
		t.Fatal(err)
	}
	if err := re.Sync(); err != nil {
		t.Fatal(err)
	}
	if pm.Stats().WriteOps(device.CauseWAL) != writes {
		t.Fatal("the re-log wrote into the adopted tail")
	}
	files := []ssd.FileID{re.File()}
	wantSeqs(t, replayedSeqs(t, sd, files, tail), 1, 40)
	if err := re.Destage(); err != nil {
		t.Fatal(err)
	}
	wantSeqs(t, replayedSeqs(t, sd, files, tail), 1, 40)
	logSeqs(t, re, 41, 45)
	if pm.Stats().WriteOps(device.CauseWAL) == writes {
		t.Fatal("an emptied tail takes no groups")
	}
	wantSeqs(t, replayedSeqs(t, sd, files, tail), 1, 45)
}

// TestDestageResumesAfterSync: a destage whose sync fails has already
// appended the tail's records; retried, it syncs them instead of appending
// them again.
func TestDestageResumesAfterSync(t *testing.T) {
	w, _, sd := tailLog(t)
	in := fault.New(4)
	sd.SetFault(in)
	logSeqs(t, w, 1, 30)
	in.FailPoint(fault.SSDSync, 1, fault.Decision{Err: fault.ErrTransient})
	if err := w.Destage(); !errors.Is(err, fault.ErrTransient) {
		t.Fatalf("Destage = %v, want the injected sync failure", err)
	}
	if err := w.Destage(); err != nil {
		t.Fatal(err)
	}
	wantSeqs(t, replayedSeqs(t, sd, []ssd.FileID{w.File()}, nil), 1, 30)
	wantSeqs(t, replayedSeqs(t, sd, []ssd.FileID{w.File()}, w.tail), 1, 30)
}

// TestVerifyTail: rot anywhere in the tail's live bytes is found at an offset
// inside them, and a leftover of an earlier epoch behind the live records is
// not mistaken for rot.
func TestVerifyTail(t *testing.T) {
	w, pm, _ := tailLog(t)
	pm.SetFault(fault.New(5))
	logSeqs(t, w, 1, 500)
	if err := w.Destage(); err != nil {
		t.Fatal(err)
	}
	logSeqs(t, w, 501, 510)
	live := int64(len(w.tail.img))
	if off, err := w.VerifyTail(); err != nil || off != -1 {
		t.Fatalf("clean tail verifies at %d (%v), want -1", off, err)
	}
	for i := 0; i < 20; i++ {
		ev, err := pm.Rot(w.tail.Addr(), 0, live)
		if err != nil {
			t.Fatal(err)
		}
		off, err := w.VerifyTail()
		if err != nil || off < 0 || off > ev.Off {
			t.Fatalf("rot at %d of %d live bytes: VerifyTail = %d (%v)", ev.Off, live, off, err)
		}
		// Heal the region from the writer's copy for the next round.
		if err := pm.WriteAt(w.tail.Addr(), 0, w.tail.img, device.CauseUnknown); err != nil {
			t.Fatal(err)
		}
	}
}
