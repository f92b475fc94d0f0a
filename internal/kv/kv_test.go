package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCompareOrdersByKeyThenSeqDesc(t *testing.T) {
	a := Entry{Key: []byte("a"), Seq: 5}
	b := Entry{Key: []byte("b"), Seq: 1}
	if Compare(a, b) >= 0 {
		t.Fatalf("Compare(a,b) = %d, want < 0", Compare(a, b))
	}
	newer := Entry{Key: []byte("k"), Seq: 9}
	older := Entry{Key: []byte("k"), Seq: 3}
	if Compare(newer, older) >= 0 {
		t.Fatalf("newer version must sort before older")
	}
	if Compare(older, newer) <= 0 {
		t.Fatalf("older version must sort after newer")
	}
	if Compare(newer, newer) != 0 {
		t.Fatalf("equal entries must compare equal")
	}
}

func TestCompareTombstoneBeforeSetAtEqualSeq(t *testing.T) {
	del := Entry{Key: []byte("k"), Seq: 7, Kind: KindDelete}
	set := Entry{Key: []byte("k"), Seq: 7, Kind: KindSet}
	if Compare(del, set) >= 0 {
		t.Fatalf("tombstone must sort before set at equal seq")
	}
}

func TestInternalKeyRoundTrip(t *testing.T) {
	cases := []Entry{
		{Key: []byte("hello"), Seq: 0, Kind: KindSet},
		{Key: []byte(""), Seq: MaxSeq, Kind: KindDelete},
		{Key: []byte{0, 1, 2, 255}, Seq: 123456789, Kind: KindSet},
	}
	for _, e := range cases {
		ik := AppendInternalKey(nil, e.Key, e.Seq, e.Kind)
		key, seq, kind := ParseInternalKey(ik)
		if !bytes.Equal(key, e.Key) || seq != e.Seq || kind != e.Kind {
			t.Errorf("round trip %v: got %q/%d/%v", e, key, seq, kind)
		}
	}
}

func TestInternalKeyOrderMatchesCompare(t *testing.T) {
	check := func(k1, k2 []byte, s1, s2 uint16) bool {
		a := Entry{Key: k1, Seq: uint64(s1), Kind: KindSet}
		b := Entry{Key: k2, Seq: uint64(s2), Kind: KindSet}
		ika := AppendInternalKey(nil, a.Key, a.Seq, a.Kind)
		ikb := AppendInternalKey(nil, b.Key, b.Seq, b.Kind)
		return sign(Compare(a, b)) == sign(CompareInternalKeys(ika, ikb))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestParseInternalKeyPanicsOnShortKey(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on short internal key")
		}
	}()
	ParseInternalKey([]byte{1, 2, 3})
}

func TestSliceIteratorSeekGE(t *testing.T) {
	entries := []Entry{
		{Key: []byte("b"), Seq: 2},
		{Key: []byte("b"), Seq: 1},
		{Key: []byte("d"), Seq: 1},
	}
	it := NewSliceIterator(entries)
	it.SeekGE([]byte("b"))
	if !it.Valid() || string(it.Entry().Key) != "b" || it.Entry().Seq != 2 {
		t.Fatalf("SeekGE(b) = %v", it.Entry())
	}
	it.SeekGE([]byte("c"))
	if !it.Valid() || string(it.Entry().Key) != "d" {
		t.Fatalf("SeekGE(c) should land on d")
	}
	it.SeekGE([]byte("e"))
	if it.Valid() {
		t.Fatal("SeekGE(e) should be exhausted")
	}
}

func TestMergingIteratorProducesGlobalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var all []Entry
	var its []Iterator
	seq := uint64(1)
	for s := 0; s < 5; s++ {
		var part []Entry
		for i := 0; i < 50; i++ {
			e := Entry{
				Key:   []byte(fmt.Sprintf("key-%03d", rng.Intn(100))),
				Value: []byte{byte(s)},
				Seq:   seq,
			}
			seq++
			part = append(part, e)
			all = append(all, e)
		}
		sort.Slice(part, func(i, j int) bool { return Compare(part[i], part[j]) < 0 })
		its = append(its, NewSliceIterator(part))
	}
	sort.Slice(all, func(i, j int) bool { return Compare(all[i], all[j]) < 0 })

	m := NewMergingIterator(its...)
	var got []Entry
	for ; m.Valid(); m.Next() {
		e := m.Entry()
		got = append(got, Entry{
			Key:   append([]byte(nil), e.Key...),
			Value: append([]byte(nil), e.Value...),
			Seq:   e.Seq,
			Kind:  e.Kind,
		})
	}
	if len(got) != len(all) {
		t.Fatalf("merged %d entries, want %d", len(got), len(all))
	}
	for i := range got {
		if Compare(got[i], all[i]) != 0 {
			t.Fatalf("position %d: got %v want %v", i, got[i], all[i])
		}
	}
}

// TestMergingIteratorReseeksExhaustedSources: a merge that is seeked again
// after one of its sources ran out must seek that source too — it may hold
// keys at or past the target.
func TestMergingIteratorReseeksExhaustedSources(t *testing.T) {
	m := NewMergingIterator(
		NewSliceIterator([]Entry{{Key: []byte("a"), Seq: 1}}),
		NewSliceIterator([]Entry{{Key: []byte("b"), Seq: 2}, {Key: []byte("c"), Seq: 3}}),
	)
	m.Next() // the first source is exhausted and leaves the heap
	for _, seek := range []struct {
		name string
		do   func()
	}{
		{`SeekGE("a")`, func() { m.SeekGE([]byte("a")) }},
		{"SeekToFirst", m.SeekToFirst},
	} {
		seek.do()
		var got []string
		for ; m.Valid(); m.Next() {
			got = append(got, string(m.Entry().Key))
		}
		if fmt.Sprint(got) != "[a b c]" {
			t.Fatalf("after Next, %s yields %v, want [a b c]", seek.name, got)
		}
	}
}

func TestDedupIteratorKeepsNewestVersion(t *testing.T) {
	entries := []Entry{
		{Key: []byte("a"), Value: []byte("new"), Seq: 9},
		{Key: []byte("a"), Value: []byte("old"), Seq: 1},
		{Key: []byte("b"), Value: []byte("x"), Seq: 5, Kind: KindDelete},
		{Key: []byte("b"), Value: []byte("y"), Seq: 2},
		{Key: []byte("c"), Value: []byte("z"), Seq: 3},
	}
	d := NewDedupIterator(NewSliceIterator(entries), false)
	var keys []string
	for ; d.Valid(); d.Next() {
		keys = append(keys, fmt.Sprintf("%s@%d", d.Entry().Key, d.Entry().Seq))
	}
	want := []string{"a@9", "b@5", "c@3"}
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", keys, want)
	}
}

func TestDedupIteratorDropsTombstones(t *testing.T) {
	entries := []Entry{
		{Key: []byte("a"), Seq: 9, Kind: KindDelete},
		{Key: []byte("a"), Value: []byte("old"), Seq: 1},
		{Key: []byte("b"), Value: []byte("y"), Seq: 2},
	}
	d := NewDedupIterator(NewSliceIterator(entries), true)
	if !d.Valid() || string(d.Entry().Key) != "b" {
		t.Fatalf("want only b, got %v", d.Entry())
	}
	d.Next()
	if d.Valid() {
		t.Fatal("expected exhaustion after b")
	}
}

func TestMergeDedupProperty(t *testing.T) {
	// Property: merging N sorted runs then deduping equals a map-based model.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		model := map[string]Entry{}
		var its []Iterator
		seq := uint64(1)
		for s := 0; s < 3; s++ {
			var part []Entry
			for i := 0; i < 30; i++ {
				k := fmt.Sprintf("k%02d", rng.Intn(20))
				kind := KindSet
				if rng.Intn(5) == 0 {
					kind = KindDelete
				}
				e := Entry{Key: []byte(k), Value: []byte(fmt.Sprint(seq)), Seq: seq, Kind: kind}
				seq++
				part = append(part, e)
				if old, ok := model[k]; !ok || e.Seq > old.Seq {
					model[k] = e
				}
			}
			sort.Slice(part, func(i, j int) bool { return Compare(part[i], part[j]) < 0 })
			its = append(its, NewSliceIterator(part))
		}
		d := NewDedupIterator(NewMergingIterator(its...), false)
		count := 0
		for ; d.Valid(); d.Next() {
			e := d.Entry()
			want, ok := model[string(e.Key)]
			if !ok || want.Seq != e.Seq || want.Kind != e.Kind {
				return false
			}
			count++
		}
		return count == len(model)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
