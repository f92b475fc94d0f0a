package kv_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"pmblade/internal/device"
	"pmblade/internal/fault"
	"pmblade/internal/kv"
	"pmblade/internal/levels"
	"pmblade/internal/memtable"
	"pmblade/internal/pmem"
	"pmblade/internal/pmtable"
	"pmblade/internal/rangeindex"
	"pmblade/internal/ssd"
	"pmblade/internal/sstable"
)

// TestIteratorErrorContract holds every kv.Iterator in the tree, and every
// wrapper stacked on it, to the contract's two halves. Intact, a source is
// drained to its last entry and ends with Err() == nil. Damaged so that it
// fails part-way, it yields a proper prefix of what it held — at most the k
// entries in front of the damage — and then Valid() is false and Err() is
// not nil, at the source and at every wrapper above it: no level turns "I
// failed" into "I am done".

const conformanceEntries = 400

func conformanceSource() []kv.Entry {
	es := make([]kv.Entry, conformanceEntries)
	for i := range es {
		es[i] = kv.Entry{Key: []byte(fmt.Sprintf("key-%04d", i)), Value: []byte(fmt.Sprintf("value-of-key-%04d", i)), Seq: uint64(i + 1)}
	}
	return es
}

// subject is one implementation under test.
type subject struct {
	name string
	// open returns a fresh, unpositioned iterator over the source.
	open func() kv.Iterator
	// damage makes iterators opened afterwards fail part-way; nil for a source
	// that cannot fail, which is then only held to the intact half.
	damage func()
	// k, when positive, is the number of entries in front of the damage.
	k int
}

// failAfter is the synthetic failing leaf: a slice that, once armed, stops
// with err in front of entries[k].
type failAfter struct {
	*kv.SliceIterator
	n, k int // entries yielded since the last seek; the limit
	err  *error
}

func (f *failAfter) failed() bool { return *f.err != nil && f.n >= f.k }
func (f *failAfter) Valid() bool  { return !f.failed() && f.SliceIterator.Valid() }
func (f *failAfter) Next()        { f.n++; f.SliceIterator.Next() }
func (f *failAfter) SeekToFirst() { f.n = 0; f.SliceIterator.SeekToFirst() }
func (f *failAfter) Err() error {
	if f.failed() {
		return *f.err
	}
	return nil
}

// pmUnitOffset returns the image offset of the header of the middle entry
// group (prefix format) or slot (array formats) of a table, and how many
// entries precede it. The layouts are those documented in
// pmtable/prefix.go and pmtable/array.go; the test keys are too short for the
// prefix format's dictionary, so its header and meta layer end inside the
// image's first line.
func pmUnitOffset(img []byte, format pmtable.Format, groupSize int) (off int64, before int) {
	const header = 26
	if format == pmtable.FormatPrefix {
		groups := int(binary.LittleEndian.Uint32(img[header+2:]))
		g := groups / 2
		slot := 256 + g/9*256 + g%9*28 // nine 28-byte slots to a 256-byte line
		entryLayer := 256 + (groups+8)/9*256
		return int64(entryLayer) + int64(binary.LittleEndian.Uint32(img[slot+24:])), g * groupSize
	}
	slots := int(binary.LittleEndian.Uint32(img[header:]))
	s := slots / 2
	before = s
	if format == pmtable.FormatArraySnappyGroup {
		before = s * groupSize
	}
	return int64(header+4+4*slots) + int64(binary.LittleEndian.Uint32(img[header+4+4*s:])), before
}

func conformanceSubjects(t *testing.T) []subject {
	entries := conformanceSource()
	subjects := []subject{
		{name: "slice", open: func() kv.Iterator { return kv.NewSliceIterator(entries) }},
	}

	mem := memtable.New()
	for _, e := range entries {
		mem.Add(e)
	}
	subjects = append(subjects, subject{name: "memtable", open: func() kv.Iterator { return mem.NewIterator() }})

	var failure error
	subjects = append(subjects, subject{
		name: "failing leaf",
		open: func() kv.Iterator {
			return &failAfter{SliceIterator: kv.NewSliceIterator(entries), k: 150, err: &failure}
		},
		damage: func() { failure = errors.New("read failed") },
		k:      150,
	})

	// The four PM table formats: the header of a group or slot in the middle
	// of the table is overwritten on the device. 0xff 0xff 0x7f is a
	// dictionary index no table has and a length no test table can hold.
	pm := pmem.New(64<<20, pmem.FastProfile)
	buildPM := func(format pmtable.Format) *pmtable.Table {
		res, err := pmtable.Build(pm, entries, format, 8, device.CauseFlush)
		if err != nil {
			t.Fatal(err)
		}
		return res.Table
	}
	for _, format := range []pmtable.Format{pmtable.FormatPrefix, pmtable.FormatArray, pmtable.FormatArraySnappy, pmtable.FormatArraySnappyGroup} {
		tbl := buildPM(format)
		img, err := pm.View(tbl.Addr(), 0, tbl.SizeBytes(), device.CauseUnknown)
		if err != nil {
			t.Fatal(err)
		}
		off, before := pmUnitOffset(img, format, 8)
		subjects = append(subjects, subject{
			name: "pmtable " + format.String(),
			open: tbl.NewIterator,
			damage: func() {
				if err := pm.WriteAt(tbl.Addr(), off, []byte{0xff, 0xff, 0x7f}, device.CauseUnknown); err != nil {
					t.Fatal(err)
				}
			},
			k: before,
		})
	}

	// SSTables: one byte in the middle of the data blocks rots at rest.
	sd := ssd.New(ssd.FastProfile)
	sd.SetFault(fault.New(1))
	buildSST := func(es []kv.Entry) *sstable.Table {
		b := sstable.NewBuilder(sd, device.CauseMajor)
		for _, e := range es {
			if err := b.Add(e); err != nil {
				t.Fatal(err)
			}
		}
		tbl, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	rot := func(tbl *sstable.Table) func() {
		return func() {
			if _, err := sd.Rot(tbl.File(), tbl.DataBytes()/2, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	plain, scan, compact := buildSST(entries), buildSST(entries), buildSST(entries)
	// The scan iterator reads through a block cache, which holds checked
	// copies: rot shows once the blocks the intact walk cached are dropped.
	cache := sstable.NewBlockCache(1 << 20)
	scan.AttachCache(cache)
	third := conformanceEntries / 3
	run := []*sstable.Table{buildSST(entries[:third]), buildSST(entries[third : 2*third]), buildSST(entries[2*third:])}
	subjects = append(subjects,
		subject{name: "sstable", open: func() kv.Iterator { return plain.NewIterator() }, damage: rot(plain)},
		subject{name: "sstable scan", open: func() kv.Iterator { return scan.NewScanIterator() }, damage: func() { rot(scan)(); cache.DropFile(scan.File()) }},
		subject{name: "sstable compaction", open: func() kv.Iterator { return compact.NewCompactionIterator(0) }, damage: rot(compact)},
		subject{name: "concat", open: func() kv.Iterator { return levels.NewConcatIterator(run) }, damage: rot(run[1])},
	)

	// A range view over a PM table and an SSD run, built while both were
	// intact; then a table of the run rots under it.
	half := conformanceEntries / 2
	viewPM := func() *pmtable.Table {
		res, err := pmtable.Build(pm, entries[:half], pmtable.FormatPrefix, 8, device.CauseFlush)
		if err != nil {
			t.Fatal(err)
		}
		return res.Table
	}()
	viewRun := []*sstable.Table{buildSST(entries[half : half+100]), buildSST(entries[half+100:])}
	view, err := rangeindex.Build(1, []rangeindex.Source{pmCursor{viewPM}, runCursor{viewRun}}, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	subjects = append(subjects, subject{name: "view iterator", open: func() kv.Iterator { return view.NewIter() }, damage: rot(viewRun[1])})
	return subjects
}

type pmCursor struct{ t *pmtable.Table }

func (s pmCursor) NewCursor() kv.PosIterator { return s.t.NewIterator().(kv.PosIterator) }
func (s pmCursor) Len() int                  { return s.t.Len() }

type runCursor struct{ tables []*sstable.Table }

func (s runCursor) NewCursor() kv.PosIterator { return levels.NewConcatScanIterator(s.tables) }
func (s runCursor) Len() int {
	n := 0
	for _, t := range s.tables {
		n += t.Len()
	}
	return n
}

// stack is one way of wrapping a source; each builds on a fresh source.
type stack struct {
	name string
	wrap func(src kv.Iterator) kv.Iterator
}

func conformanceStacks() []stack {
	// The merge's second input: keys that interleave with the source's, so the
	// merge has something of its own to yield past the point of failure — and
	// must not.
	var other []kv.Entry
	for i := 0; i < conformanceEntries; i += 2 {
		other = append(other, kv.Entry{Key: []byte(fmt.Sprintf("key-%04d+", i)), Value: []byte("other"), Seq: uint64(1000 + i)})
	}
	merging := func(src kv.Iterator) kv.Iterator {
		return kv.NewMergingIterator(src, kv.NewSliceIterator(other))
	}
	visible := func(src kv.Iterator) kv.Iterator { return kv.NewVisibleIterator(merging(src), kv.MaxSeq) }
	return []stack{
		{"bare", func(src kv.Iterator) kv.Iterator { src.SeekToFirst(); return src }},
		{"merging", merging},
		{"visible(merging)", visible},
		{"retain(visible(merging))", func(src kv.Iterator) kv.Iterator { return kv.NewRetainIterator(visible(src), nil, false) }},
		{"dedup(visible(merging))", func(src kv.Iterator) kv.Iterator { return kv.NewDedupIterator(visible(src), true) }},
	}
}

// drain collects what it yields from where it stands.
func drain(it kv.Iterator) (keys []string) {
	for ; it.Valid(); it.Next() {
		keys = append(keys, string(it.Entry().Key))
	}
	return keys
}

func TestIteratorErrorContract(t *testing.T) {
	for _, sub := range conformanceSubjects(t) {
		t.Run(sub.name, func(t *testing.T) {
			stacks := conformanceStacks()
			intact := make([][]string, len(stacks))
			for i, st := range stacks {
				it := st.wrap(sub.open())
				intact[i] = drain(it)
				if err := it.Err(); err != nil {
					t.Fatalf("%s over the intact source: Err %v", st.name, err)
				}
				if want := conformanceEntries; i == 0 && len(intact[i]) != want {
					t.Fatalf("the intact source yields %d entries, want %d", len(intact[i]), want)
				}
			}
			if sub.damage == nil {
				return
			}
			sub.damage()
			for i, st := range stacks {
				src := sub.open()
				it := st.wrap(src)
				got := drain(it)
				if it.Valid() || it.Err() == nil || src.Err() == nil {
					t.Fatalf("%s over the damaged source: %d entries, then Valid %v, Err %v, source Err %v; want an error at every level",
						st.name, len(got), it.Valid(), it.Err(), src.Err())
				}
				if !errors.Is(it.Err(), src.Err()) {
					t.Fatalf("%s reports %v, its source %v", st.name, it.Err(), src.Err())
				}
				if len(got) >= len(intact[i]) || fmt.Sprint(got) != fmt.Sprint(intact[i][:len(got)]) {
					t.Fatalf("%s over the damaged source yields %d entries, intact %d: not a proper prefix", st.name, len(got), len(intact[i]))
				}
				if i == 0 && sub.k > 0 && len(got) > sub.k {
					t.Fatalf("the source yields %d entries, %d lie in front of the damage", len(got), sub.k)
				}
			}
		})
	}
}
