package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestEngineMatchesModel drives random operations (put, delete, get, scan,
// flush, internal compaction, major compaction) against the engine and an
// in-memory map, asserting they stay observationally identical. This is the
// repository's strongest correctness net: every tier transition must
// preserve the database's logical contents.
func TestEngineMatchesModel(t *testing.T) {
	for name, cfg := range allModeConfigs() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			check := func(seed int64) bool {
				return runModelTrial(t, cfg, seed, 1200)
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 6}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func runModelTrial(t *testing.T, cfg Config, seed int64, ops int) bool {
	t.Helper()
	cfg.MemtableBytes = 8 << 10 // flush constantly
	db, err := Open(cfg)
	if err != nil {
		t.Error(err)
		return false
	}
	defer db.Close()

	rng := rand.New(rand.NewSource(seed))
	model := map[string]string{}
	key := func() []byte { return []byte(fmt.Sprintf("key-%04d", rng.Intn(300))) }

	// One snapshot is opened at a seeded op and held to the end, across every
	// later flush and compaction of every job kind: it must keep reading the
	// model as it was frozen then.
	snapAt := int(uint64(seed) % uint64(ops/2))
	var snap *Snapshot
	var frozen map[string]string

	for i := 0; i < ops; i++ {
		if i == snapAt {
			if snap, err = db.NewSnapshot(); err != nil {
				t.Error(err)
				return false
			}
			defer snap.Close()
			frozen = make(map[string]string, len(model))
			for k, v := range model {
				frozen[k] = v
			}
		}
		switch op := rng.Intn(100); {
		case op < 45: // put
			k := key()
			v := fmt.Sprintf("v-%d-%d", seed, i)
			if err := db.Put(k, []byte(v)); err != nil {
				t.Errorf("put: %v", err)
				return false
			}
			model[string(k)] = v
		case op < 60: // delete
			k := key()
			if err := db.Delete(k); err != nil {
				t.Errorf("delete: %v", err)
				return false
			}
			delete(model, string(k))
		case op < 90: // get
			k := key()
			got, ok, err := db.Get(k)
			if err != nil {
				t.Errorf("get: %v", err)
				return false
			}
			want, exists := model[string(k)]
			if ok != exists || (ok && string(got) != want) {
				t.Errorf("seed %d op %d: Get(%s) = %q,%v want %q,%v",
					seed, i, k, got, ok, want, exists)
				return false
			}
		case op < 96: // bounded scan
			lo := []byte(fmt.Sprintf("key-%04d", rng.Intn(300)))
			hi := []byte(fmt.Sprintf("key-%04d", rng.Intn(300)))
			if bytes.Compare(lo, hi) > 0 {
				lo, hi = hi, lo
			}
			got, err := db.Scan(lo, hi, 0)
			if err != nil {
				t.Errorf("scan: %v", err)
				return false
			}
			var want []string
			for k := range model {
				if k >= string(lo) && k < string(hi) {
					want = append(want, k)
				}
			}
			sort.Strings(want)
			if len(got) != len(want) {
				t.Errorf("seed %d op %d: scan[%s,%s) = %d keys want %d",
					seed, i, lo, hi, len(got), len(want))
				return false
			}
			for j := range got {
				if string(got[j].Key) != want[j] {
					t.Errorf("scan key %d: %s want %s", j, got[j].Key, want[j])
					return false
				}
				if string(got[j].Value) != model[want[j]] {
					t.Errorf("scan val for %s: %s want %s", want[j], got[j].Value, model[want[j]])
					return false
				}
			}
		case op < 98:
			if err := db.FlushAll(); err != nil {
				t.Errorf("flush: %v", err)
				return false
			}
		default:
			if err := db.MajorCompactAll(); err != nil {
				t.Errorf("major: %v", err)
				return false
			}
		}
	}
	// Final full verification.
	for k, want := range model {
		got, ok, err := db.Get([]byte(k))
		if err != nil || !ok || string(got) != want {
			t.Errorf("seed %d final: Get(%s) = %q,%v,%v want %q", seed, k, got, ok, err, want)
			return false
		}
	}
	res, err := db.Scan(nil, nil, 0)
	if err != nil {
		t.Error(err)
		return false
	}
	if len(res) != len(model) {
		t.Errorf("seed %d final scan: %d keys want %d", seed, len(res), len(model))
		return false
	}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("key-%04d", i)
		got, ok, err := snap.Get([]byte(k))
		want, exists := frozen[k]
		if err != nil || ok != exists || string(got) != want {
			t.Errorf("seed %d snapshot@op %d: Get(%s) = %q,%v,%v want %q,%v", seed, snapAt, k, got, ok, err, want, exists)
			return false
		}
	}
	res, err = snap.Scan(nil, nil, 0)
	if err != nil {
		t.Error(err)
		return false
	}
	if len(res) != len(frozen) {
		t.Errorf("seed %d snapshot@op %d: scan %d keys want %d", seed, snapAt, len(res), len(frozen))
		return false
	}
	for j, r := range res {
		if j > 0 && bytes.Compare(res[j-1].Key, r.Key) >= 0 {
			t.Errorf("seed %d snapshot scan out of order at %s", seed, r.Key)
			return false
		}
		if want, exists := frozen[string(r.Key)]; !exists || string(r.Value) != want {
			t.Errorf("seed %d snapshot@op %d: scan %s = %q want %q,%v", seed, snapAt, r.Key, r.Value, want, exists)
			return false
		}
	}
	return true
}
