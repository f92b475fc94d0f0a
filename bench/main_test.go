package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// Every workload, untraced and traced, at smoke scale: no operation fails,
// and every metric BENCHMARK.json names is reported with a finite value and
// the unit the file states.
func TestSmokeReportsEveryMetric(t *testing.T) {
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, m := range c.EndToEnd {
		if a, ok := agreement[m.Name]; !ok || a > m.Bound {
			t.Errorf("%s: agreement bound %v (present=%v) must exist and not exceed BENCHMARK.json's %v", m.Name, a, ok, m.Bound)
		}
	}
	out := t.TempDir()
	for _, cw := range c.Workloads {
		w, err := findWorkload(cw.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			rep, err := run(w, 1, c.RunSeconds, true, traced, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.correct || rep.failed != 0 || rep.attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", w.name, traced, rep.correct, rep.attempted, rep.failed, rep.notes)
			}
			want := map[string]string{}
			if traced {
				for _, m := range c.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range c.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range rep.metrics {
				unit, ok := want[m.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: reports %s, which BENCHMARK.json does not name", w.name, traced, m.name)
				case unit != m.unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.name, m.name, m.unit, unit)
				case math.IsNaN(m.value) || math.IsInf(m.value, 0):
					t.Errorf("%s: %s = %v", w.name, m.name, m.value)
				}
				delete(want, m.name)
			}
			for name := range want {
				t.Errorf("%s traced=%v: %s is missing from the output", w.name, traced, name)
			}
		}
		checkSpans(t, filepath.Join(out, "trace-"+w.name+"-seed1.jsonl"))
	}
}

// checkSpans reads a span file: ids are unique, every parent resolves to an
// earlier span, no span ends before it starts, and every public call and
// every layer of the standalone pass has a span.
func checkSpans(t *testing.T, path string) {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[int32]bool{}
	names := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.ID == 0 {
			continue // a counter snapshot
		}
		if seen[s.ID] {
			t.Fatalf("%s: span id %d twice", path, s.ID)
		}
		if s.Parent != 0 && !seen[s.Parent] {
			t.Fatalf("%s: span %d (%s) has parent %d, which no earlier span has", path, s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			t.Fatalf("%s: span %d (%s) ends before it starts", path, s.ID, s.Name)
		}
		seen[s.ID] = true
		names[s.Name] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"open", "load", "flush", "checkpoint", "phase", "round", "get", "mget", "scan", "put", "recover",
		"probe", "standalone", "replay", "memtable", "bloom", "kv", "pmtable", "pmem", "level0", "sstable", "ssd",
		"wal", "compaction", "sched", "levels", "rangeindex", "costmodel",
	} {
		if !names[name] {
			t.Errorf("%s: no span named %q", path, name)
		}
	}
}
