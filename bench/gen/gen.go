// Package gen makes the benchmark's inputs from a seed: the record keys, a
// pool of values, the load order, and the operation stream. The engine sees
// only what this package generated, and the same seed gives the same inputs.
// It imports nothing from the repository, so a change to the engine cannot
// change what the benchmark feeds it.
package gen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// Kind is the type of one operation.
type Kind uint8

// The four operation types every workload issues.
const (
	Get Kind = iota
	MGet
	Scan
	Put
	NumKinds
)

// String names the kind as the metric names spell it.
func (k Kind) String() string {
	return [...]string{"get", "mget", "scan", "put"}[k]
}

const (
	// MGetKeys is the number of keys in one MultiGet.
	MGetKeys = 16
	// ScanLimit is the entry limit of one Scan.
	ScanLimit = 50
	// PoolSize is the number of distinct values; a power of two.
	PoolSize = 4096
)

// Mix is the share of each operation kind, in percent; it sums to 100.
type Mix [NumKinds]int

// Spec describes one workload's inputs.
type Spec struct {
	Records    int     // keys user000000000000 … loaded before the phase
	ValueBytes int     // size of every value
	Warm       int     // operations of the untimed warm-up before the phase
	Ops        int     // operations in the timed phase
	Mix        Mix     // operation shares
	Theta      float64 // Zipfian exponent of the keys read; 0 reads uniformly
	Tail       int     // puts of the recovery tail, after the phase
}

// Op is one operation. Key indexes Inputs.Keys. For MGet, Key indexes
// Inputs.MGets (MGetKeys entries from Key*MGetKeys). For Put and tail
// writes, Val indexes Inputs.Values.
type Op struct {
	Kind Kind
	Key  int32
	Val  int32
}

// Inputs is everything one run feeds the engine.
type Inputs struct {
	Keys   [][]byte // sorted: index order is key order
	Values [][]byte // PoolSize values of Spec.ValueBytes each
	Load   []Op     // every key once, in seeded random order, Kind Put
	Warm   []Op     // the warm-up, same mix and distribution as the phase
	Ops    []Op     // the timed phase
	MGets  []int32  // key indexes of the MultiGets, MGetKeys per op
	Tail   []Op     // the recovery tail, Kind Put
}

// New generates the inputs of spec from seed.
func New(seed int64, spec Spec) *Inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &Inputs{
		Keys:   make([][]byte, spec.Records),
		Values: make([][]byte, PoolSize),
		Load:   make([]Op, spec.Records),
		Warm:   make([]Op, spec.Warm),
		Ops:    make([]Op, spec.Ops),
		Tail:   make([]Op, spec.Tail),
	}
	for i := range in.Keys {
		in.Keys[i] = []byte(fmt.Sprintf("user%012d", i))
	}
	for i := range in.Values {
		v := make([]byte, spec.ValueBytes)
		rng.Read(v)
		in.Values[i] = v
	}
	for i, k := range rng.Perm(spec.Records) {
		in.Load[i] = Op{Kind: Put, Key: int32(k), Val: int32(rng.Intn(PoolSize))}
	}

	// Reads follow the workload's distribution; writes are always uniform.
	// Zipfian writes would keep the hot keys in the memtable, about half of
	// all reads would be served there, and the median read would sit on the
	// edge between memtable and PM latency, where it moves 30 % when the
	// hit share moves 3 %.
	write := uniform(rng, spec.Records)
	next := write
	if spec.Theta > 0 {
		next = scrambledZipf(rng, spec.Records, spec.Theta)
	}
	var cum [NumKinds]int
	sum := 0
	for k, share := range spec.Mix {
		sum += share
		cum[k] = sum
	}
	for _, ops := range [][]Op{in.Warm, in.Ops} {
		for i := range ops {
			r := rng.Intn(100)
			kind := Get
			for r >= cum[kind] {
				kind++
			}
			op := Op{Kind: kind}
			switch kind {
			case MGet:
				op.Key = int32(len(in.MGets) / MGetKeys)
				for j := 0; j < MGetKeys; j++ {
					in.MGets = append(in.MGets, next())
				}
			case Put:
				op.Key, op.Val = write(), int32(rng.Intn(PoolSize))
			default:
				op.Key = next()
			}
			ops[i] = op
		}
	}
	for i := range in.Tail {
		in.Tail[i] = Op{Kind: Put, Key: write(), Val: int32(rng.Intn(PoolSize))}
	}
	return in
}

// Hash fingerprints the generated inputs (load order, warm-up and phase,
// MultiGet keys, tail, and the values' bytes).
func (in *Inputs) Hash() uint64 {
	h := fnv.New64a()
	var b [9]byte
	for _, ops := range [][]Op{in.Load, in.Warm, in.Ops, in.Tail} {
		for _, op := range ops {
			b[0] = byte(op.Kind)
			binary.LittleEndian.PutUint32(b[1:], uint32(op.Key))
			binary.LittleEndian.PutUint32(b[5:], uint32(op.Val))
			h.Write(b[:])
		}
	}
	for _, k := range in.MGets {
		binary.LittleEndian.PutUint32(b[:4], uint32(k))
		h.Write(b[:4])
	}
	for _, v := range in.Values {
		h.Write(v)
	}
	return h.Sum64()
}

func uniform(rng *rand.Rand, n int) func() int32 {
	return func() int32 { return int32(rng.Intn(n)) }
}

// scrambledZipf draws ranks with the Zipfian distribution of Gray et al.
// ("Quickly generating billion-record synthetic databases"), the one YCSB
// uses, and scatters the ranks over the key space with a fixed bijection, so
// the hot keys are not neighbours.
func scrambledZipf(rng *rand.Rand, n int, theta float64) func() int32 {
	zeta := func(n int) float64 {
		var sum float64
		for i := 1; i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	zetan := zeta(n)
	alpha := 1 / (1 - theta)
	eta := (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/zetan)
	half := 1 + math.Pow(0.5, theta)
	// rank*stride mod n is a bijection when stride and n share no factor.
	stride := n*5/8 + 1
	for gcd(stride, n) != 1 {
		stride++
	}
	return func() int32 {
		u := rng.Float64()
		uz := u * zetan
		var rank int
		switch {
		case uz < 1:
			rank = 0
		case uz < half:
			rank = 1
		default:
			rank = int(float64(n) * math.Pow(eta*u-eta+1, alpha))
			if rank >= n {
				rank = n - 1
			}
		}
		return int32(rank * stride % n)
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
