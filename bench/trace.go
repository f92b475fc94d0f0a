package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the benchmark into the program: a public call
// of the run, or a batch of calls into one layer built standalone. Calls is
// the number of calls a batch span covers (1 for a single call).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Round  int    `json:"round"` // -1 outside the timed phase
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls"`
}

// tracer keeps spans and counter snapshots in memory until the run ends. A
// nil tracer records nothing, so the untraced run pays one nil check.
type tracer struct {
	base     time.Time
	spans    []span
	counters []roundCounters
}

// roundCounters is the counter snapshot taken at a round boundary.
type roundCounters struct {
	Round    int      `json:"round"` // the round that starts here; rounds = end of phase
	AtNs     int64    `json:"at_ns"`
	Counters counters `json:"counters"`
}

func newTracer(opSpans int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, opSpans+4096)}
}

// now is nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent int32, round int) int32 {
	if t == nil {
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Round: round, Start: t.now(), Calls: 1})
	return id
}

func (t *tracer) end(id int32) {
	if t != nil {
		t.spans[id-1].End = t.now()
	}
}

// add records a span whose interval the caller already measured, as offsets
// from the tracer's base.
func (t *tracer) add(name string, parent int32, round int, start, end int64, calls int) {
	t.spans = append(t.spans, span{
		ID: int32(len(t.spans) + 1), Parent: parent, Name: name, Round: round, Start: start, End: end, Calls: calls,
	})
}

// write stores the spans and counter snapshots as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	for i := range t.counters {
		if err := enc.Encode(&t.counters[i]); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
