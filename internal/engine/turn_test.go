package engine

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"pmblade/internal/device"
	"pmblade/internal/fault"
)

// holdTurn parks a turn at the head of the commit queue, so whatever the test
// queues next lines up behind it in the order the test chooses. The returned
// function ends the turn.
func holdTurn(db *DB) (release func()) {
	started, gate, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		db.turn(func() {
			close(started)
			<-gate
		})
		close(done)
	}()
	<-started
	return func() {
		close(gate)
		<-done
	}
}

// queueBehind runs op on its own goroutine and returns once it waits in the
// commit queue, n-th in line; op's result arrives on the returned channel.
func queueBehind(db *DB, n int, op func() error) <-chan error {
	res := make(chan error, 1)
	go func() { res <- op() }()
	for {
		db.commitMu.Lock()
		queued := len(db.commitQ)
		db.commitMu.Unlock()
		if queued == n {
			return res
		}
		runtime.Gosched()
	}
}

// TestRotationBetweenTwoWritersKeepsTierOrder drives the schedule that used
// to read back in time: writer A, then a rotation, then writer B on the same
// key. The queue runs them in that order, so A's older sequence lands in the
// retired memtable and B's newer one in the fresh memtable, and Get answers B
// before the flush and after it.
func TestRotationBetweenTwoWritersKeepsTierOrder(t *testing.T) {
	db, err := Open(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p := db.partitions[0]
	key := []byte("k")

	release := holdTurn(db)
	a := queueBehind(db, 2, func() error { return db.Put(key, []byte("A")) })
	rot := queueBehind(db, 3, func() error {
		db.turn(func() { p.rotate(0) })
		return nil
	})
	b := queueBehind(db, 4, func() error { return db.Put(key, []byte("B")) })
	release()
	for _, res := range []<-chan error{a, rot, b} {
		if err := <-res; err != nil {
			t.Fatal(err)
		}
	}

	s := p.state.Load()
	if len(s.imm) != 1 {
		t.Fatalf("%d immutables after one rotation", len(s.imm))
	}
	old, okA := s.imm[0].Get(key, db.VisibleSeq())
	cur, okB := s.mem.Get(key, db.VisibleSeq())
	if !okA || !okB || string(old.Value) != "A" || string(cur.Value) != "B" || old.Seq >= cur.Seq {
		t.Fatalf("retired memtable holds %q@%d (%v), active one %q@%d (%v); want A below B",
			old.Value, old.Seq, okA, cur.Value, cur.Seq, okB)
	}
	checkTierOrder(t, db, false)
	for _, when := range []string{"before", "after"} {
		got, ok, err := db.Get(key)
		if err != nil || !ok || string(got) != "B" {
			t.Fatalf("%s the flush Get = %q (%v, %v), want B", when, got, ok, err)
		}
		if err := db.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
}

// logConfigs is cfg as the two logs an engine can have: with PM, groups go to
// the log tail; without it, straight to the SSD file.
func logConfigs(cfg Config) map[string]Config {
	noPM := cfg
	noPM.Level0OnPM = false
	return map[string]Config{"pm": cfg, "ssd": noPM}
}

// TestQueuedWritersShareOneLogWrite: sixteen writers waiting in the queue are
// one turn — one contiguous sequence block, one log write and one fence: a PM
// write and a flush into the log tail, or an SSD append and a sync without
// PM — and each of them is acked with its write readable.
func TestQueuedWritersShareOneLogWrite(t *testing.T) {
	for name, cfg := range logConfigs(fastConfig()) {
		t.Run(name, func(t *testing.T) {
			in := fault.New(1)
			cfg.FaultInjector = in
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			const writers = 16
			release := holdTurn(db)
			var acks []<-chan error
			for w := 0; w < writers; w++ {
				w := w
				acks = append(acks, queueBehind(db, 2+w, func() error {
					if w%2 == 0 {
						return db.Put(key6(w), []byte(fmt.Sprint(w)))
					}
					var b Batch
					b.Put(key6(w), []byte(fmt.Sprint(w)))
					b.Put(key6(100+w), []byte(fmt.Sprint(w)))
					return db.Apply(&b)
				}))
			}
			m := db.Metrics()
			groups, batches, deviceOps, seq := m.WALCommitCount.Load(), m.WALCommitBatches.Load(), in.Points(), db.Seq()
			logWrites := func() (pm, ssd int64) {
				if db.pm != nil {
					pm = db.pm.Stats().WriteOps(device.CauseWAL)
				}
				return pm, db.ssd.Stats().WriteOps(device.CauseWAL)
			}
			pmWrites, ssdWrites := logWrites()
			release()
			for w, ack := range acks {
				if err := <-ack; err != nil {
					t.Fatalf("writer %d: %v", w, err)
				}
			}
			if g, b := m.WALCommitCount.Load()-groups, m.WALCommitBatches.Load()-batches; g != 1 || b != writers {
				t.Fatalf("%d writers committed as %d batches in %d groups, want %d in 1", writers, b, g, writers)
			}
			pmAfter, ssdAfter := logWrites()
			wantPM := map[string]int64{"pm": 1, "ssd": 0}[name]
			if ops := in.Points() - deviceOps; ops != 2 || pmAfter-pmWrites != wantPM || ssdAfter-ssdWrites != 1-wantPM {
				t.Fatalf("the group cost %d device operations, %d PM and %d SSD log writes; want one %s log write and one fence",
					ops, pmAfter-pmWrites, ssdAfter-ssdWrites, name)
			}
			if got, want := db.Seq()-seq, uint64(writers+writers/2); got != want || db.VisibleSeq() != db.Seq() {
				t.Fatalf("group took %d sequences (visible %d, seq %d), want %d", got, db.VisibleSeq(), db.Seq(), want)
			}
			for w := 0; w < writers; w++ {
				got, ok, err := db.Get(key6(w))
				if err != nil || !ok || string(got) != fmt.Sprint(w) {
					t.Fatalf("writer %d: Get = %q (%v, %v)", w, got, ok, err)
				}
			}
		})
	}
}

// logWritePoint is the failpoint of a log write in an engine built from cfg:
// the PM write into the log tail, or the SSD append without PM.
func logWritePoint(cfg Config) fault.Point {
	if cfg.Level0OnPM {
		return fault.PMWrite
	}
	return fault.SSDAppend
}

// logFencePoint is the failpoint that makes logWritePoint's write durable.
func logFencePoint(cfg Config) fault.Point {
	if cfg.Level0OnPM {
		return fault.PMFlush
	}
	return fault.SSDSync
}

// TestFailedGroupFailsEveryMember: a WAL failure — of the log write or of its
// fence, in the PM tail or the SSD file — fails the whole turn: every queued
// member gets the error, none of their entries is readable, the group's
// sequence block stays burned with the watermark moved past it. A
// non-transient failure is sticky while one that merely ran out of retries is
// not.
func TestFailedGroupFailsEveryMember(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fail   error
		times  int  // consecutive log writes (or fences) that fail
		fence  bool // the fence fails, not the write
		sticky bool
	}{
		{"permanent", fault.ErrPermanent, 1, false, true},
		{"transient", fault.ErrTransient, faultRetries + 1, false, false},
		{"fence", fault.ErrPermanent, 1, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for log, cfg := range logConfigs(faultConfig(nil)) {
				t.Run(log, func(t *testing.T) {
					in := fault.New(7)
					cfg.FaultInjector = in
					db, err := Open(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer db.Close()
					if err := db.Put([]byte("before"), []byte("v")); err != nil {
						t.Fatal(err)
					}
					seq := db.Seq()

					const writers = 3
					release := holdTurn(db)
					var acks []<-chan error
					for w := 0; w < writers; w++ {
						w := w
						acks = append(acks, queueBehind(db, 2+w, func() error { return db.Put(key6(w), []byte("lost")) }))
					}
					rule := fault.Rule{Point: logWritePoint(cfg), Cause: device.CauseWAL, Once: true,
						Decision: fault.Decision{Err: tc.fail}}
					if tc.fence { // a fence carries no cause
						rule.Point, rule.AnyCause = logFencePoint(cfg), true
					}
					for i := 0; i < tc.times; i++ {
						in.AddRule(rule)
					}
					release()
					for w, ack := range acks {
						if err := <-ack; !errors.Is(err, tc.fail) {
							t.Fatalf("writer %d of the failed group got %v, want %v", w, err, tc.fail)
						}
					}
					if db.Seq() != seq+writers || db.VisibleSeq() != db.Seq() {
						t.Fatalf("after the failed group seq = %d, visible = %d; want both %d", db.Seq(), db.VisibleSeq(), seq+writers)
					}
					for w := 0; w < writers; w++ {
						if _, ok, err := db.Get(key6(w)); ok || err != nil {
							t.Fatalf("failed write %d is readable (%v, %v)", w, ok, err)
						}
					}
					if got, ok, err := db.Get([]byte("before")); err != nil || !ok || string(got) != "v" {
						t.Fatalf("reads must keep serving: %q (%v, %v)", got, ok, err)
					}
					err = db.Put([]byte("after"), []byte("v"))
					if tc.sticky && !errors.Is(err, tc.fail) {
						t.Fatalf("a degraded engine must refuse writes with the cause, got %v", err)
					}
					if !tc.sticky && (err != nil || db.Seq() != seq+writers+1) {
						t.Fatalf("write after exhausted retries: %v at seq %d, want success at %d", err, db.Seq(), seq+writers+1)
					}
				})
			}
		})
	}
}
