package rangeindex

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"pmblade/internal/kv"
)

// sliceSource is an in-memory Source for tests. With err set, its cursors
// fail with it on reaching entries[failAt].
type sliceSource struct {
	entries []kv.Entry
	failAt  int
	err     error
}

func (s *sliceSource) Len() int { return len(s.entries) }
func (s *sliceSource) NewCursor() kv.PosIterator {
	return &sliceCursor{sliceSource: s, i: len(s.entries)}
}

type sliceCursor struct {
	*sliceSource
	i int
}

func (c *sliceCursor) Valid() bool { return c.i >= 0 && c.i < len(c.entries) && c.Err() == nil }
func (c *sliceCursor) Err() error {
	if c.i >= c.failAt {
		return c.err
	}
	return nil
}
func (c *sliceCursor) Next()           { c.i++ }
func (c *sliceCursor) Entry() kv.Entry { return c.entries[c.i] }
func (c *sliceCursor) SeekToFirst()    { c.i = 0 }
func (c *sliceCursor) SeekGE(key []byte) {
	for c.i = 0; c.i < len(c.entries); c.i++ {
		if bytes.Compare(c.entries[c.i].Key, key) >= 0 {
			break
		}
	}
}
func (c *sliceCursor) Pos() uint64 {
	if !c.Valid() {
		return kv.PosEOF
	}
	return uint64(c.i)
}
func (c *sliceCursor) SetPos(pos uint64) {
	if pos == kv.PosEOF {
		c.i = len(c.entries)
		return
	}
	c.i = int(pos)
}

func e(key string, seq uint64, val string) kv.Entry {
	return kv.Entry{Key: []byte(key), Value: []byte(val), Seq: seq, Kind: kv.KindSet}
}

// mergeRef is the reference merge: all entries of all sources in kv.Compare
// order.
func mergeRef(srcs []Source) []kv.Entry {
	var all []kv.Entry
	for _, s := range srcs {
		all = append(all, s.(*sliceSource).entries...)
	}
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && kv.Compare(all[j], all[j-1]) < 0; j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	return all
}

func buildSources(nSrc, perSrc int) []Source {
	srcs := make([]Source, nSrc)
	seq := uint64(1)
	for si := 0; si < nSrc; si++ {
		s := &sliceSource{}
		for i := 0; i < perSrc; i++ {
			// Interleaved keys with some overlap across sources so dup bits
			// and cross-source ordering are exercised.
			k := fmt.Sprintf("key%05d", (i*nSrc+si)%((perSrc*nSrc)*3/4+1))
			s.entries = append(s.entries, e(k, seq, fmt.Sprintf("v%d.%d", si, i)))
			seq++
		}
		// Per-source entries must be in kv.Compare order.
		for i := 1; i < len(s.entries); i++ {
			for j := i; j > 0 && kv.Compare(s.entries[j], s.entries[j-1]) < 0; j-- {
				s.entries[j], s.entries[j-1] = s.entries[j-1], s.entries[j]
			}
		}
		srcs[si] = s
	}
	return srcs
}

func TestBuildAndFullWalk(t *testing.T) {
	for _, segTarget := range []int{1, 4, 32} {
		srcs := buildSources(3, 40)
		v, err := Build(7, srcs, segTarget, nil)
		if err != nil {
			t.Fatalf("segTarget=%d: %v", segTarget, err)
		}
		if v.Epoch() != 7 {
			t.Fatalf("epoch = %d", v.Epoch())
		}
		want := mergeRef(srcs)
		if v.Len() != len(want) {
			t.Fatalf("segTarget=%d: Len = %d, want %d", segTarget, v.Len(), len(want))
		}
		it := v.NewIter()
		i := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			g, w := it.Entry(), want[i]
			if !bytes.Equal(g.Key, w.Key) || g.Seq != w.Seq || !bytes.Equal(g.Value, w.Value) {
				t.Fatalf("segTarget=%d entry %d: got %s@%d, want %s@%d", segTarget, i, g.Key, g.Seq, w.Key, w.Seq)
			}
			dup := i > 0 && bytes.Equal(want[i-1].Key, w.Key)
			if it.SameAsPrev() != dup {
				t.Fatalf("segTarget=%d entry %d: SameAsPrev = %v, want %v", segTarget, i, it.SameAsPrev(), dup)
			}
			i++
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		if i != len(want) {
			t.Fatalf("walked %d entries, want %d", i, len(want))
		}
	}
}

func TestSeekGE(t *testing.T) {
	srcs := buildSources(4, 30)
	v, err := Build(1, srcs, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := mergeRef(srcs)
	it := v.NewIter()
	probe := func(key string) {
		it.SeekGE([]byte(key))
		wi := 0
		for wi < len(want) && bytes.Compare(want[wi].Key, []byte(key)) < 0 {
			wi++
		}
		if wi == len(want) {
			if it.Valid() {
				t.Fatalf("SeekGE(%q): valid at %s, want exhausted", key, it.Entry().Key)
			}
			return
		}
		if !it.Valid() {
			t.Fatalf("SeekGE(%q): exhausted, want %s@%d", key, want[wi].Key, want[wi].Seq)
		}
		g := it.Entry()
		if !bytes.Equal(g.Key, want[wi].Key) || g.Seq != want[wi].Seq {
			t.Fatalf("SeekGE(%q): got %s@%d, want %s@%d", key, g.Key, g.Seq, want[wi].Key, want[wi].Seq)
		}
	}
	probe("")         // before everything
	probe("key00000") // first key
	probe("key00037")
	probe("key00050")
	probe("key99999") // past everything
	for i := 0; i < len(want); i += 7 {
		probe(string(want[i].Key))
	}
}

func TestEmptyAndSingleSource(t *testing.T) {
	v, err := Build(3, nil, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	it := v.NewIter()
	it.SeekToFirst()
	if it.Valid() {
		t.Fatal("empty view: iterator valid")
	}
	it.SeekGE([]byte("x"))
	if it.Valid() {
		t.Fatal("empty view: SeekGE valid")
	}

	s := &sliceSource{entries: []kv.Entry{e("a", 1, "1"), e("b", 2, "2")}}
	v, err = Build(4, []Source{s}, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 2 || v.Segments() != 1 {
		t.Fatalf("Len=%d Segments=%d", v.Len(), v.Segments())
	}
}

func TestBuildRejectsShortSource(t *testing.T) {
	// A source whose iterator stops early without saying why must fail the
	// build rather than produce a silently truncated view.
	s := &sliceSource{entries: []kv.Entry{e("a", 1, "1"), e("b", 2, "2")}}
	lying := &lyingSource{sliceSource: s, claim: 5}
	if _, err := Build(1, []Source{lying}, 16, nil); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("Build of a source that yielded fewer entries than Len claimed: %v, want ErrInconsistent", err)
	}
	// One that stops on an error of its own fails the build with that error.
	rot := errors.New("block 1 rotted")
	failing := &sliceSource{entries: s.entries, failAt: 1, err: rot}
	if _, err := Build(1, []Source{s, failing}, 16, nil); !errors.Is(err, rot) {
		t.Fatalf("Build over a cursor that failed: %v, want its error", err)
	}
}

type lyingSource struct {
	*sliceSource
	claim int
}

func (s *lyingSource) Len() int { return s.claim }

func TestRefcount(t *testing.T) {
	released := 0
	s := &sliceSource{entries: []kv.Entry{e("a", 1, "1")}}
	v, err := Build(1, []Source{s}, 16, func() { released++ })
	if err != nil {
		t.Fatal(err)
	}
	if !v.TryRef() {
		t.Fatal("TryRef on live view failed")
	}
	v.Unref() // reader
	if released != 0 {
		t.Fatal("released while owner ref held")
	}
	v.Unref() // owner
	if released != 1 {
		t.Fatalf("release hook ran %d times, want 1", released)
	}
	if v.TryRef() {
		t.Fatal("TryRef succeeded on released view")
	}
}

func TestMidScanSourceFailure(t *testing.T) {
	// A cursor that dies mid-scan (source exhausted earlier than the
	// selectors expect) must surface ErrInconsistent, not truncate silently.
	s1 := &sliceSource{entries: []kv.Entry{e("a", 1, "1"), e("c", 2, "2"), e("e", 3, "3")}}
	s2 := &sliceSource{entries: []kv.Entry{e("b", 4, "4"), e("d", 5, "5")}}
	v, err := Build(1, []Source{s1, s2}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	it := v.NewIter()
	it.SeekToFirst()
	// Sabotage source 1's cursor: force it past the end.
	it.cursors[0].(*sliceCursor).i = len(s1.entries)
	it.Next() // the walk must notice the selector/cursor mismatch
	for it.Valid() {
		it.Next()
	}
	if !errors.Is(it.Err(), ErrInconsistent) {
		t.Fatalf("Err after cursor sabotage = %v, want ErrInconsistent", it.Err())
	}
	// A cursor that stops on an error of its own: the walk yields what
	// precedes the failure and reports that error, not a verdict on the view.
	rot := errors.New("block 1 rotted")
	s1.failAt, s1.err = 1, rot
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		n++
	}
	if n != 2 || !errors.Is(it.Err(), rot) {
		t.Fatalf("walk over a cursor failing at its 2nd entry: %d entries, Err %v; want a, b and the cursor's error", n, it.Err())
	}
}
