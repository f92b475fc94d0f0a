package app

import "internal/kv"

// drains loses the difference between "ran out" and "failed".
func drains(t *kv.Table) (n int) {
	it := t.NewIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() { // want `it is advanced but drains never reads its Err\(\)`
		n++
	}
	return n
}

// drainsInterface: the static type may be the interface itself.
func drainsInterface(it kv.Iterator) (n int) {
	for ; it.Valid(); it.Next() { // want `it is advanced but drainsInterface never reads its Err\(\)`
		n++
	}
	return n
}

// drainsOpened: an iterator without seeks is drained under the same bargain.
func drainsOpened(o *kv.Opened) (n int) {
	for ; o.Valid(); o.Next() { // want `o is advanced but drainsOpened never reads its Err\(\)`
		n++
	}
	return n
}

// checks asks once, after the loop.
func checks(t *kv.Table) (int, error) {
	it := t.NewIterator()
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		n++
	}
	return n, it.Err()
}

// checksInClosure: closures belong to the function that declares them.
func checksInClosure(it kv.Iterator, each func(func())) error {
	each(func() { it.Next() })
	return it.Err()
}

type source struct {
	it   kv.Iterator
	heap []kv.Iterator
}

// refillShort advances an iterator it holds in a field and forgets to ask.
func (s *source) refillShort() {
	for s.it.Valid() {
		s.it.Next() // want `s\.it is advanced but refillShort never reads its Err\(\)`
	}
}

// refill asks the same field.
func (s *source) refill() error {
	for s.it.Valid() {
		s.it.Next()
	}
	return s.it.Err()
}

// popAll: every index of a slice is one value to the rule.
func (s *source) popAll() error {
	for i := range s.heap {
		s.heap[i].Next()
	}
	for i := range s.heap {
		if err := s.heap[i].Err(); err != nil {
			return err
		}
	}
	return nil
}

// otherField checks a different iterator than the one it advances.
func (s *source) otherField(o *source) error {
	s.it.Next() // want `s\.it is advanced but otherField never reads its Err\(\)`
	return o.it.Err()
}

// skipOne advances and hands the iterator on: the callee owes the check.
func skipOne(it kv.Iterator) (int, error) {
	it.Next()
	return checksRest(it)
}

func checksRest(it kv.Iterator) (int, error) { return 0, it.Err() }

// positioned advances and returns the iterator: the caller owes the check.
func positioned(t *kv.Table) kv.Iterator {
	it := t.NewIterator()
	it.SeekToFirst()
	it.Next()
	return it
}

// wrapped stores the iterator in a value it returns.
func wrapped(it kv.Iterator) *source {
	it.Next()
	return &source{it: it}
}

// limit is itself an iterator: it forwards its input's error through its own
// Err, so its methods may advance the input without asking.
type limit struct {
	in kv.Iterator
	n  int
}

func (l *limit) Valid() bool       { return l.n > 0 && l.in.Valid() }
func (l *limit) Next()             { l.n--; l.in.Next() }
func (l *limit) Entry() kv.Entry   { return l.in.Entry() }
func (l *limit) SeekGE(key []byte) { l.in.SeekGE(key) }
func (l *limit) SeekToFirst()      { l.in.SeekToFirst() }
func (l *limit) Err() error        { return l.in.Err() }
func (l *limit) skip(n int) {
	for ; n > 0; n-- {
		l.in.Next()
	}
}

// notAnIterator: a Next that is not the iterator's is none of the rule's
// business.
func notAnIterator(c *kv.Cursor) int { return c.Next() + c.Next() }

func suppressedDrain(it kv.Iterator) {
	// A loop that only warms a cache may not care, with a reason:
	//pmblade:allow nodrop fixture demonstrating suppression
	it.Next()
}
