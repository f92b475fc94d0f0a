package kv

import (
	"fmt"
	"testing"
)

func collect(it Iterator) []Entry {
	var out []Entry
	for ; it.Valid(); it.Next() {
		e := it.Entry()
		out = append(out, Entry{
			Key:   append([]byte(nil), e.Key...),
			Value: append([]byte(nil), e.Value...),
			Seq:   e.Seq,
			Kind:  e.Kind,
		})
	}
	return out
}

func TestVisibleIteratorFiltersBeforeDedup(t *testing.T) {
	// Key "a" was overwritten at seq 5, after a snapshot at seq 3. Naive
	// dedup-then-filter drops the key entirely; visibility-before-dedup
	// resolves it to the seq-2 version.
	entries := []Entry{
		{Key: []byte("a"), Value: []byte("new"), Seq: 5},
		{Key: []byte("a"), Value: []byte("old"), Seq: 2},
		{Key: []byte("b"), Value: []byte("b-only-new"), Seq: 4},
	}
	it := NewDedupIterator(NewVisibleIterator(NewSliceIterator(entries), 3), false)
	got := collect(it)
	if len(got) != 1 || string(got[0].Key) != "a" || string(got[0].Value) != "old" {
		t.Fatalf("got %v, want [a=old]", got)
	}
}

func TestVisibleIteratorSeek(t *testing.T) {
	entries := []Entry{
		{Key: []byte("a"), Seq: 9},
		{Key: []byte("a"), Seq: 1},
		{Key: []byte("b"), Seq: 8},
	}
	it := NewVisibleIterator(NewSliceIterator(entries), 5)
	it.SeekGE([]byte("a"))
	if !it.Valid() || it.Entry().Seq != 1 {
		t.Fatalf("SeekGE(a) should settle on a@1, got %v", it.Entry())
	}
	it.SeekGE([]byte("b"))
	if it.Valid() {
		t.Fatal("SeekGE(b) should be exhausted: b@8 postdates the snapshot")
	}
	it.SeekToFirst()
	if !it.Valid() || string(it.Entry().Key) != "a" || it.Entry().Seq != 1 {
		t.Fatalf("SeekToFirst should settle on a@1, got %v", it.Entry())
	}
}

// retain runs a Retainer over entries (already in internal-key order) and
// returns what survives.
func retain(entries []Entry, bounds []uint64, dropTombstones bool) []Entry {
	return collect(NewRetainIterator(NewSliceIterator(entries), bounds, dropTombstones))
}

func TestRetainerNoBoundsIsPlainDedup(t *testing.T) {
	entries := []Entry{
		{Key: []byte("a"), Value: []byte("a3"), Seq: 3},
		{Key: []byte("a"), Value: []byte("a1"), Seq: 1},
		{Key: []byte("b"), Seq: 2, Kind: KindDelete},
		{Key: []byte("c"), Value: []byte("c4"), Seq: 4},
	}
	got := retain(entries, nil, false)
	if len(got) != 3 || got[0].Seq != 3 || got[1].Kind != KindDelete || got[2].Seq != 4 {
		t.Fatalf("no-bounds retention should equal dedup, got %v", got)
	}
	got = retain(entries, nil, true)
	if len(got) != 2 || string(got[0].Key) != "a" || string(got[1].Key) != "c" {
		t.Fatalf("dropTombstones should elide b's tombstone, got %v", got)
	}
}

func TestRetainerKeepsSnapshotVersions(t *testing.T) {
	// Snapshot at seq 2 pins a@2; versions a@5 (newest, always kept) and a@2
	// (visible at the boundary) survive, a@1 (shadowed by a@2 below every
	// boundary) does not.
	entries := []Entry{
		{Key: []byte("a"), Value: []byte("a5"), Seq: 5},
		{Key: []byte("a"), Value: []byte("a2"), Seq: 2},
		{Key: []byte("a"), Value: []byte("a1"), Seq: 1},
	}
	got := retain(entries, []uint64{2, 5}, false)
	if len(got) != 2 || got[0].Seq != 5 || got[1].Seq != 2 {
		t.Fatalf("want [a@5 a@2], got %v", got)
	}
}

func TestRetainerKeepsUnpublishedVersions(t *testing.T) {
	// Versions above the max boundary (the watermark) are unpublished: the
	// in-order publish may stop on any of them, so all must survive.
	entries := []Entry{
		{Key: []byte("a"), Value: []byte("a9"), Seq: 9},
		{Key: []byte("a"), Value: []byte("a8"), Seq: 8},
		{Key: []byte("a"), Value: []byte("a3"), Seq: 3},
		{Key: []byte("a"), Value: []byte("a1"), Seq: 1},
	}
	got := retain(entries, []uint64{5}, false)
	// a@9, a@8 unpublished; a@3 visible at the watermark; a@1 shadowed.
	if len(got) != 3 || got[0].Seq != 9 || got[1].Seq != 8 || got[2].Seq != 3 {
		t.Fatalf("want [a@9 a@8 a@3], got %v", got)
	}
}

// TestRetainerServesExactlyTheListedReaders is the Retainer half of the
// engine's retentionBounds invariant ("all bounds ≤ the watermark read under
// snapMu", every live pin among them): a reader is served the version it
// should see iff its sequence is a bound or lies at/above the largest bound.
// A pin that is missing from the set and falls between two bounds — {W0, S1}
// with S2 in between, which is what copying the pins and loading the
// watermark in two unsynchronized steps could produce — loses its version.
func TestRetainerServesExactlyTheListedReaders(t *testing.T) {
	versions := []Entry{ // one key, newest first
		{Key: []byte("a"), Value: []byte("a12"), Seq: 12},
		{Key: []byte("a"), Value: []byte("a9"), Seq: 9},
		{Key: []byte("a"), Value: []byte("a6"), Seq: 6},
		{Key: []byte("a"), Value: []byte("a3"), Seq: 3},
	}
	visibleAt := func(es []Entry, seq uint64) uint64 {
		for _, e := range es {
			if e.Seq <= seq {
				return e.Seq
			}
		}
		return 0
	}
	for _, tc := range []struct {
		name   string
		bounds []uint64
		served []uint64 // reader sequences that must see what they saw before
		lost   []uint64 // reader sequences whose version is gone
	}{
		{"every pin listed", []uint64{4, 7, 10}, []uint64{4, 7, 10}, nil},
		{"pins at or above the largest bound need no listing", []uint64{4, 10}, []uint64{4, 10, 11, 12, 13}, nil},
		{"unlisted pin between two bounds", []uint64{4, 10}, []uint64{4, 10}, []uint64{7}},
		{"unlisted pin below a lone watermark", []uint64{10}, []uint64{10, 12}, []uint64{4, 7}},
	} {
		kept := retain(versions, tc.bounds, false)
		for _, seq := range tc.served {
			if got, want := visibleAt(kept, seq), visibleAt(versions, seq); got != want {
				t.Errorf("%s: reader at %d sees a@%d after retention, want a@%d (kept %v)", tc.name, seq, got, want, kept)
			}
		}
		for _, seq := range tc.lost {
			if got, want := visibleAt(kept, seq), visibleAt(versions, seq); got == want {
				t.Errorf("%s: reader at %d still sees a@%d — the case no longer shows why every pin must be a bound", tc.name, seq, got)
			}
		}
	}
}

func TestRetainerTombstoneElision(t *testing.T) {
	// A retained tombstone is dropped only when it is the sole retained
	// version of its key; when an older version survives for a snapshot, the
	// tombstone must survive too or the key would resurrect.
	entries := []Entry{
		{Key: []byte("a"), Seq: 5, Kind: KindDelete},
		{Key: []byte("a"), Value: []byte("a2"), Seq: 2},
		{Key: []byte("b"), Seq: 6, Kind: KindDelete}, // sole version: elidable
	}
	// Snapshot at 3 pins a@2, so a's tombstone must survive with it; b's
	// tombstone is the sole retained version of its key and is elided.
	got := retain(entries, []uint64{3, 7}, true)
	if len(got) != 2 ||
		string(got[0].Key) != "a" || got[0].Kind != KindDelete ||
		string(got[1].Key) != "a" || got[1].Seq != 2 {
		t.Fatalf("want [a@5(del) a@2], got %v", got)
	}
}

func TestRetainerStartsNewKey(t *testing.T) {
	r := NewRetainer(nil, false)
	if !r.StartsNewKey([]byte("a")) {
		t.Fatal("empty retainer: every key starts a new group")
	}
	r.Next(Entry{Key: []byte("a"), Seq: 2})
	if r.StartsNewKey([]byte("a")) {
		t.Fatal("same key should not start a new group")
	}
	if !r.StartsNewKey([]byte("b")) {
		t.Fatal("different key should start a new group")
	}
}

func TestRetainIteratorSeekResetsGroups(t *testing.T) {
	var entries []Entry
	for i := 0; i < 8; i++ {
		entries = append(entries, Entry{Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte("v"), Seq: uint64(10 + i)})
	}
	it := NewRetainIterator(NewSliceIterator(entries), []uint64{20}, false)
	got := collect(it)
	if len(got) != 8 {
		t.Fatalf("full walk: %d entries, want 8", len(got))
	}
	it.SeekGE([]byte("k4"))
	got = collect(it)
	if len(got) != 4 || string(got[0].Key) != "k4" {
		t.Fatalf("after SeekGE(k4): %v", got)
	}
}
