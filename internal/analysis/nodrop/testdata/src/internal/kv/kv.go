// Package kv is a fixture dependency shaped like the real iterator contract:
// an iterator that is not Valid is exhausted or failed, and Err says which.
package kv

// Entry is one record.
type Entry struct{ Key, Value []byte }

// Iterator is the contract the drain rule recognises by its method set.
type Iterator interface {
	Valid() bool
	Next()
	Entry() Entry
	SeekGE(key []byte)
	SeekToFirst()
	Err() error
}

// Table is a concrete source.
type Table struct{}

// NewIterator returns a concrete iterator type, as the real tables do.
func (t *Table) NewIterator() *TableIterator { return &TableIterator{} }

// TableIterator implements Iterator.
type TableIterator struct{ err error }

func (it *TableIterator) Valid() bool       { return false }
func (it *TableIterator) Next()             {}
func (it *TableIterator) Entry() Entry      { return Entry{} }
func (it *TableIterator) SeekGE(key []byte) {}
func (it *TableIterator) SeekToFirst()      {}
func (it *TableIterator) Err() error        { return it.err }

// Opened is positioned by whoever builds it and cannot be seeked, as the
// engine's range-read cursor: the draining half of the method set is enough
// for the rule.
type Opened struct{ err error }

func (o *Opened) Valid() bool  { return false }
func (o *Opened) Next()        {}
func (o *Opened) Entry() Entry { return Entry{} }
func (o *Opened) Err() error   { return o.err }

// Cursor has a Next but not the iterator's method set: a workload generator,
// say. The rule has no opinion about it.
type Cursor struct{}

func (c *Cursor) Next() int { return 0 }
