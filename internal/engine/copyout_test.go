package engine

import (
	"bytes"
	"fmt"
	"testing"
)

// The tiers a point read can be served from, oldest first.
var tierNames = []string{"SSD run", "PM sorted", "PM unsorted", "memtable"}

func tieredValue(key []byte) []byte { return bytes.Repeat(key, 8) }

// tieredDB opens a database that compacts only when told to and leaves n keys
// in each tier of tierNames; keys[t] are tier t's keys and every value is
// tieredValue(key).
func tieredDB(t testing.TB, n int) (db *DB, keys [][][]byte) {
	t.Helper()
	cfg := fastConfig()
	cfg.CostBased = false
	cfg.L0TriggerTables = 1 << 20
	cfg.MemtableBytes = 64 << 20
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	settle := []func() error{
		func() error { return firstError([]error{db.FlushAll(), db.MajorCompactAll()}) },
		func() error { return firstError([]error{db.FlushAll(), db.InternalCompactAll()}) },
		db.FlushAll,
		func() error { return nil },
	}
	for tier, name := range tierNames {
		var ks [][]byte
		for i := 0; i < n; i++ {
			k := []byte(fmt.Sprintf("user%02d-%08d", tier, i))
			ks = append(ks, k)
			if err := db.Put(k, tieredValue(k)); err != nil {
				t.Fatal(err)
			}
		}
		keys = append(keys, ks)
		if err := settle[tier](); err != nil {
			t.Fatalf("settling %s: %v", name, err)
		}
	}
	s := db.partitions[0].state.Load()
	if s.mem.Len() != n || len(s.imm) != 0 || len(s.pmUnsorted) != 1 || len(s.pmSorted) != 1 ||
		len(s.ssdL0) != 0 || len(s.runs) != 1 || len(s.runs[0]) == 0 {
		t.Fatalf("tiers not as built: mem %d entries, %d imm, %d unsorted + %d sorted PM tables, %d SSD L0, runs %v",
			s.mem.Len(), len(s.imm), len(s.pmUnsorted), len(s.pmSorted), len(s.ssdL0), s.runs)
	}
	return db, keys
}

// TestReturnedValuesAreCopies: every tier's lookup hands the engine a view —
// of a memtable node, a PM-table image, a cached block — and the engine copies
// it exactly once, before it lets go of the read state. So whatever a caller
// does to a returned value, the next read returns the original.
func TestReturnedValuesAreCopies(t *testing.T) {
	db, keys := tieredDB(t, 40)
	snap, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	type readFn func(t *testing.T, key []byte) []byte
	mget := func(f func([][]byte) ([]GetResult, error)) readFn {
		return func(t *testing.T, key []byte) []byte {
			res, err := f([][]byte{key, key}) // a batch that answers one key twice
			if err != nil || len(res) != 2 || res[0].Err != nil || !res[0].Found {
				t.Fatalf("MultiGet(%s) = %+v, %v", key, res, err)
			}
			return res[0].Value
		}
	}
	get := func(f func([]byte) ([]byte, bool, error)) readFn {
		return func(t *testing.T, key []byte) []byte {
			v, ok, err := f(key)
			if err != nil || !ok {
				t.Fatalf("Get(%s) = %v, %v", key, ok, err)
			}
			return v
		}
	}
	reads := []struct {
		name string
		read readFn
	}{
		{"Get", get(db.Get)},
		{"MultiGet", mget(db.MultiGet)},
		{"Snapshot.Get", get(snap.Get)},
		{"Snapshot.MultiGet", mget(snap.MultiGet)},
	}
	for tier, name := range tierNames {
		for _, r := range reads {
			t.Run(name+"/"+r.name, func(t *testing.T) {
				for _, key := range keys[tier] {
					v := r.read(t, key)
					if !bytes.Equal(v, tieredValue(key)) {
						t.Fatalf("%s: read %q", key, v)
					}
					for i := range v {
						v[i] ^= 0xff
					}
					for _, again := range reads {
						if got := again.read(t, key); !bytes.Equal(got, tieredValue(key)) {
							t.Fatalf("%s: after the caller overwrote a value %s returned, %s reads %q", key, r.name, again.name, got)
						}
					}
				}
			})
		}
	}
}
