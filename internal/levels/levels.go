// Package levels manages the SSD tier of the LSM-tree. A Run is one sorted
// run of non-overlapping SSTables; a Leveled tree is an overlapping level 0
// over one or more runs, and its level-1 target says which of the two shapes
// the paper compares it has:
//
//   - l1Target == 0: one sorted run — PM-Blade's level-1 (Section III adopts
//     a three-tier structure to avoid the write amplification and read cost
//     of deep level hierarchies).
//   - l1Target > 0: a conventional hierarchy, L1..Ln growing x10 — the
//     RocksDB-emulation baseline.
//
// Run and Leveled are the maintenance-side containers; the probe functions
// (Covering, Get, GetBatch) work on the immutable table slices they publish.
package levels

import (
	"bytes"
	"slices"

	"pmblade/internal/kv"
	"pmblade/internal/sstable"
)

// Covering returns the table of a sorted, non-overlapping sequence whose key
// range contains key, or nil.
func Covering(tables []*sstable.Table, key []byte) *sstable.Table {
	lo, hi := 0, len(tables)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(tables[mid].Largest(), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(tables) && bytes.Compare(key, tables[lo].Smallest()) >= 0 {
		return tables[lo]
	}
	return nil
}

// Get searches the (at most one) table of a sorted, non-overlapping sequence
// that covers key. The caller keeps the tables referenced.
func Get(tables []*sstable.Table, key []byte, seq uint64) (kv.Entry, bool, error) {
	t := Covering(tables, key)
	if t == nil {
		return kv.Entry{}, false, nil
	}
	return t.Get(key, seq)
}

// GetBatch resolves several keys against a sorted, non-overlapping sequence:
// each unresolved key is aimed at the one table covering it and
// sstable.GetBatch does the rest, so the blocks the batch needs from all the
// covering tables are outstanding at the device together. out and found are
// parallel to keys; positions already marked found are skipped. It reports
// the block reads saved by coalescing. The caller keeps the tables referenced.
func GetBatch(tables []*sstable.Table, keys [][]byte, seq uint64, out []kv.Entry, found []bool) (coalesced int, err error) {
	covering := make([]*sstable.Table, len(keys))
	for i, key := range keys {
		if !found[i] {
			covering[i] = Covering(tables, key)
		}
	}
	return sstable.GetBatch(covering, keys, seq, out, found)
}

// Run is a sorted, non-overlapping sequence of SSTables, ascending by key
// range, as its maintainer sees it. It carries no lock: the engine mutates it
// only under the partition's maintenance lock and publishes Tables() to
// readers inside an immutable read state. Replace installs a fresh slice, so
// a slice handed out by Tables is never edited afterwards.
type Run struct {
	tables []*sstable.Table
}

// NewRun returns an empty run.
func NewRun() *Run { return &Run{} }

// Tables returns the run's tables; callers must not edit the slice.
func (r *Run) Tables() []*sstable.Table { return r.tables }

// Len reports the number of tables.
func (r *Run) Len() int { return len(r.tables) }

// SizeBytes reports the run's SSD footprint.
func (r *Run) SizeBytes() int64 {
	var t int64
	for _, tb := range r.tables {
		t += tb.SizeBytes()
	}
	return t
}

// Get is the package-level Get over the run's current tables.
func (r *Run) Get(key []byte, seq uint64) (kv.Entry, bool, error) {
	return Get(r.tables, key, seq)
}

// Overlapping returns the tables intersecting [lo, hi] (inclusive user-key
// bounds); nil bounds mean unbounded.
func (r *Run) Overlapping(lo, hi []byte) []*sstable.Table {
	var out []*sstable.Table
	for _, t := range r.tables {
		if lo != nil && bytes.Compare(t.Largest(), lo) < 0 {
			continue
		}
		if hi != nil && bytes.Compare(t.Smallest(), hi) > 0 {
			continue
		}
		out = append(out, t)
	}
	return out
}

// Replace substitutes the tables in `old` with `new_` (which must be sorted
// and non-overlapping with the remainder). Old tables are NOT deleted from
// the device — the caller owns their lifecycle so readers can drain first.
func (r *Run) Replace(old, new_ []*sstable.Table) {
	merged := append(without(r.tables, old), new_...)
	sortTables(merged)
	r.tables = merged
}

// without returns a fresh slice holding ts minus the tables in drop.
func without(ts, drop []*sstable.Table) []*sstable.Table {
	return slices.DeleteFunc(slices.Clone(ts), func(t *sstable.Table) bool { return slices.Contains(drop, t) })
}

func sortTables(ts []*sstable.Table) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && bytes.Compare(ts[j].Smallest(), ts[j-1].Smallest()) < 0; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// fanout is the size ratio between adjacent levels of a hierarchy (RocksDB's).
const fanout = 10

// Leveled is an SSD tree: level 0 holds overlapping tables in flush order
// (newest first); levels >= 1 are sorted runs, and the deepest is the bottom.
// With a zero level-1 target level 1 is the only run (and, with level-0 on
// PM, level 0 stays empty); with a positive one it grows by fanout. Like Run
// it carries no lock and installs fresh slices on every mutation.
type Leveled struct {
	// l0 is newest-first and may overlap.
	l0 []*sstable.Table
	// runs[i] is level i+1; level 1 always exists.
	runs []*Run

	// l0Trigger is the table count that triggers L0→L1 compaction.
	l0Trigger int
	// l1Target is the target size of level 1, level n targets
	// l1Target * fanout^(n-1); 0 means level 1 has no target.
	l1Target int64
}

// NewLeveled returns a tree with an empty level 0 over an empty level 1.
func NewLeveled(l0Trigger int, l1Target int64) *Leveled {
	return &Leveled{runs: []*Run{NewRun()}, l0Trigger: l0Trigger, l1Target: l1Target}
}

// AddL0 installs a freshly flushed table as the newest L0 table.
func (l *Leveled) AddL0(t *sstable.Table) {
	l.l0 = append([]*sstable.Table{t}, l.l0...)
}

// L0Tables returns level 0 (newest first); callers must not edit the slice.
func (l *Leveled) L0Tables() []*sstable.Table { return l.l0 }

// Levels reports the number of levels below L0.
func (l *Leveled) Levels() int { return len(l.runs) }

// Run returns level n (1-based); it is created empty on first access.
func (l *Leveled) Run(n int) *Run {
	for len(l.runs) < n {
		l.runs = append(l.runs, NewRun())
	}
	return l.runs[n-1]
}

// RunTables returns the tables of every level below L0, shallowest first.
func (l *Leveled) RunTables() [][]*sstable.Table {
	out := make([][]*sstable.Table, len(l.runs))
	for i, r := range l.runs {
		out[i] = r.tables
	}
	return out
}

// RemoveL0 removes the given tables from level 0 (after compaction).
func (l *Leveled) RemoveL0(ts []*sstable.Table) {
	l.l0 = without(l.l0, ts)
}

// Remove detaches ts from whichever levels hold them (compaction, quarantine).
func (l *Leveled) Remove(ts ...*sstable.Table) {
	l.RemoveL0(ts)
	for _, r := range l.runs {
		r.Replace(ts, nil)
	}
}

// PickCompaction chooses the next leveled compaction: L0 if it crossed its
// trigger, otherwise the shallowest level over its size target. It returns
// the source level (0 for L0) and ok=false when nothing needs compaction.
func (l *Leveled) PickCompaction() (level int, ok bool) {
	if len(l.l0) > 0 && len(l.l0) >= l.l0Trigger {
		return 0, true
	}
	target := l.l1Target
	for i, r := range l.runs {
		if target > 0 && r.SizeBytes() > target {
			return i + 1, true
		}
		target *= fanout
	}
	return 0, false
}
