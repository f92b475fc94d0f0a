// Package engine is a fixture mirroring the real engine's lock fields: a DB
// with majorMu and partitions each carrying a maint mutex. Its import path
// ends in internal/engine, so the lockorder analyzer applies.
package engine

import "sync"

type partition struct {
	id    int
	maint sync.Mutex
}

type DB struct {
	majorMu    sync.Mutex
	partitions []*partition
}

// majorCompact is the sanctioned Eq. 3 shape: majorMu first, then every
// victim's maint lock accumulated in ascending partition order.
func (db *DB) majorCompact() {
	db.majorMu.Lock()
	defer db.majorMu.Unlock()
	for _, p := range db.partitions {
		p.maint.Lock()
	}
	for _, p := range db.partitions {
		p.maint.Unlock()
	}
}

// flushOne locks a single partition's maint alone — always allowed.
func (db *DB) flushOne(p *partition) {
	p.maint.Lock()
	defer p.maint.Unlock()
}

// sweepSequential locks one partition at a time inside the loop; the unlock
// in the same iteration means locks never accumulate.
func (db *DB) sweepSequential() {
	for _, p := range db.partitions {
		p.maint.Lock()
		p.maint.Unlock()
	}
}

// accumulateWithoutMajor violates rule 3: maint locks pile up across
// iterations with majorMu not held.
func (db *DB) accumulateWithoutMajor() {
	for _, p := range db.partitions {
		p.maint.Lock() // want `multiple partition maint locks held without majorMu`
	}
	for _, p := range db.partitions {
		p.maint.Unlock()
	}
}

// pairWithoutMajor violates rule 3 without a loop: two distinct maint locks
// held together.
func pairWithoutMajor(a, b *partition) {
	a.maint.Lock()
	b.maint.Lock() // want `multiple partition maint locks held without majorMu`
	b.maint.Unlock()
	a.maint.Unlock()
}

// descendingSweep violates the ascending-order rule even under majorMu.
func (db *DB) descendingSweep() {
	db.majorMu.Lock()
	defer db.majorMu.Unlock()
	for i := len(db.partitions) - 1; i >= 0; i-- {
		db.partitions[i].maint.Lock() // want `descending order`
	}
	for _, p := range db.partitions {
		p.maint.Unlock()
	}
}

// inversion violates rule 2 directly: majorMu after maint.
func (db *DB) inversion(p *partition) {
	p.maint.Lock()
	db.majorMu.Lock() // want `majorMu acquired while holding a partition maint lock`
	db.majorMu.Unlock()
	p.maint.Unlock()
}

// relock is a straightforward self-deadlock.
func relock(p *partition) {
	p.maint.Lock()
	p.maint.Lock() // want `p\.maint locked while already held \(self-deadlock\)`
}

// transitiveInversion violates rule 2 through a callee: majorCompact may take
// majorMu, and it is called with a maint lock held.
func (db *DB) transitiveInversion(p *partition) {
	p.maint.Lock()
	db.majorCompact() // want `majorCompact may acquire majorMu, called while holding a partition maint lock`
	p.maint.Unlock()
}

// callWithoutMaint calls a majorMu-taking function with no maint held — fine.
func (db *DB) callWithoutMaint() {
	db.majorCompact()
}

// evictLocked runs on the Eq. 3 path with majorMu already held by the caller,
// so accumulating maint locks here is sanctioned.
//
//pmblade:holds majorMu
func (db *DB) evictLocked() {
	for _, p := range db.partitions {
		p.maint.Lock()
	}
	for _, p := range db.partitions {
		p.maint.Unlock()
	}
}

// suppressed records a deliberate, reviewed exception.
func suppressedPair(a, b *partition) {
	a.maint.Lock()
	//pmblade:allow lockorder fixture demonstrating suppression
	b.maint.Lock()
	b.maint.Unlock()
	a.maint.Unlock()
}

// compactToSSD stands in for the real compactToSSD: the one function that
// performs the compaction device I/O itself (rule 4's roots carry the
// directive).
//
//pmblade:compacts
func (db *DB) compactToSSD(p *partition) { _ = p }

// compactVictim performs compaction I/O under the victim's own maint lock —
// the sanctioned per-victim shape; no majorMu involved.
func (db *DB) compactVictim(p *partition) {
	p.maint.Lock()
	db.compactToSSD(p)
	p.maint.Unlock()
}

// snapshotThenCompact is the sanctioned rule-4 shape: the decision happens
// under majorMu, the lock is released, and only then do victims compact.
func (db *DB) snapshotThenCompact() {
	db.majorMu.Lock()
	victims := db.partitions
	db.majorMu.Unlock()
	for _, q := range victims {
		db.compactVictim(q)
	}
}

// evictUnderMajor violates rule 4 directly: compaction I/O with majorMu held.
func (db *DB) evictUnderMajor(p *partition) {
	db.majorMu.Lock()
	db.compactToSSD(p) // want `compactToSSD performs compaction I/O, called while majorMu is held`
	db.majorMu.Unlock()
}

// evictUnderMajorTransitive violates rule 4 through a callee: compactVictim
// does not carry the directive but calls a function that does.
func (db *DB) evictUnderMajorTransitive(p *partition) {
	db.majorMu.Lock()
	defer db.majorMu.Unlock()
	db.compactVictim(p) // want `compactVictim performs compaction I/O, called while majorMu is held`
}

// evictLockedCompacts violates rule 4 with the lock inherited from the
// caller via the holds directive.
//
//pmblade:holds majorMu
func (db *DB) evictLockedCompacts(p *partition) {
	db.compactToSSD(p) // want `compactToSSD performs compaction I/O, called while majorMu is held`
}

// holdsThenCompact exercises the interplay of the two directive mechanisms:
// //pmblade:holds seeds majorMu-held replay state, so both compaction calls
// below are diagnosed purely from directive-established state; the allow
// comment then suppresses only the line below it, so the second call must
// still be reported — a suppression covers one line, never the directive's
// whole scope.
//
//pmblade:holds majorMu
func (db *DB) holdsThenCompact(p *partition) {
	//pmblade:allow lockorder fixture: suppression composes with holds state
	db.compactToSSD(p)
	db.compactToSSD(p) // want `compactToSSD performs compaction I/O, called while majorMu is held`
}
