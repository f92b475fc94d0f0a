package gen

import "testing"

var testSpec = Spec{Records: 5000, ValueBytes: 64, Ops: 20000, Mix: Mix{40, 20, 20, 20}, Theta: 0.99, Tail: 640}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := New(7, testSpec), New(7, testSpec)
	if a.Hash() != b.Hash() {
		t.Fatalf("seed 7 gave two different inputs: %016x and %016x", a.Hash(), b.Hash())
	}
	if c := New(8, testSpec); c.Hash() == a.Hash() {
		t.Fatalf("seeds 7 and 8 gave the same inputs: %016x", a.Hash())
	}
}

func TestInputsMatchSpec(t *testing.T) {
	in := New(1, testSpec)
	if len(in.Keys) != testSpec.Records || len(in.Load) != testSpec.Records || len(in.Ops) != testSpec.Ops || len(in.Tail) != testSpec.Tail {
		t.Fatalf("sizes: %d keys, %d load, %d ops, %d tail", len(in.Keys), len(in.Load), len(in.Ops), len(in.Tail))
	}
	for i := 1; i < len(in.Keys); i++ {
		if string(in.Keys[i-1]) >= string(in.Keys[i]) {
			t.Fatalf("keys %d and %d are not in order", i-1, i)
		}
	}
	loaded := make([]bool, testSpec.Records)
	for _, op := range in.Load {
		if loaded[op.Key] {
			t.Fatalf("key %d loaded twice", op.Key)
		}
		loaded[op.Key] = true
	}
	var count [NumKinds]int
	for _, op := range in.Ops {
		count[op.Kind]++
		if int(op.Key) >= testSpec.Records && op.Kind != MGet {
			t.Fatalf("key index %d out of range", op.Key)
		}
	}
	for k, share := range testSpec.Mix {
		if got := 100 * count[k] / testSpec.Ops; got < share-2 || got > share+2 {
			t.Errorf("%v: %d%% of the operations, want about %d%%", Kind(k), got, share)
		}
	}
	if len(in.MGets) != count[MGet]*MGetKeys {
		t.Fatalf("%d MultiGet keys for %d MultiGets", len(in.MGets), count[MGet])
	}
}

// The Zipfian draw concentrates on few keys, and the scatter spreads those
// keys over the key space instead of leaving them neighbours.
func TestZipfIsSkewedAndScattered(t *testing.T) {
	in := New(1, testSpec)
	hits := make([]int, testSpec.Records)
	gets := 0
	for _, op := range in.Ops {
		if op.Kind == Get {
			hits[op.Key]++
			gets++
		}
	}
	first, second, most := -1, -1, 0
	for k, n := range hits {
		if n > most {
			first, second, most = k, first, n
		}
	}
	if most < gets/50 {
		t.Errorf("hottest key has %d of %d gets: not skewed", most, gets)
	}
	if d := first - second; second >= 0 && d > -100 && d < 100 {
		t.Errorf("the two hottest keys seen in order, %d and %d, are neighbours", second, first)
	}
}
