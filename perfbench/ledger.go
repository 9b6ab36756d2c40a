package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"chebymc/internal/obs"
)

// span is one timed call from the benchmark into a module of the
// program. Name is "<layer>" or "<layer>.<class>"; Item identifies the
// work item (app, task set or request) every span of that item shares.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Item   int    `json:"item"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the span's module name.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory. A nil *tracer is the untraced run: every
// method is a no-op that reads no clock.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// stack holds the open spans of serial code (push/pop); concurrent
	// code passes parents explicitly (open/close).
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// push opens a span nested in the innermost pushed span. Serial code
// only: the traced sweeps run on one goroutine.
func (t *tracer) push(name string, item int) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, t.open(name, item, parent))
}

// pop closes the innermost pushed span.
func (t *tracer) pop() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	t.close(t.stack[n])
	t.stack = t.stack[:n]
}

// open starts a span under an explicit parent (-1 for a root) and
// returns its index; safe for concurrent use.
func (t *tracer) open(name string, item, parent int) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent, Item: item})
	return len(t.spans) - 1
}

// close ends span i; safe for concurrent use.
func (t *tracer) close(i int) {
	if t == nil || i < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// ledger is one traced rep split by layer.
type ledger struct {
	// wall is the rep's wall clock; other the part of it outside every
	// span.
	wall, other time.Duration
	// self is each layer's self time: its spans' durations minus the
	// parts their child spans cover.
	self map[string]time.Duration
	// byName collects every span duration per full span name, for
	// per-class percentiles.
	byName map[string][]time.Duration
	spans  []span
}

// ledgerOf closes the books on a traced rep that took wall.
func (t *tracer) ledgerOf(wall time.Duration) (*ledger, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	l := &ledger{wall: wall, self: map[string]time.Duration{}, byName: map[string][]time.Duration{}, spans: spans}
	childDur := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) was never closed", i, s.Name)
		}
		if s.Parent >= 0 {
			childDur[s.Parent] += s.dur()
		}
	}
	for i, s := range spans {
		l.self[s.layer()] += time.Duration(s.dur() - childDur[i])
		l.byName[s.Name] = append(l.byName[s.Name], time.Duration(s.dur()))
	}
	l.other = wall - time.Duration(unionLength(spans))
	return l, nil
}

// unionLength measures the time covered by at least one span. It is
// computed from the intervals alone, independently of the parent links,
// so self times plus other add up to wall only when children nest inside
// their parents and roots never overlap.
func unionLength(spans []span) int64 {
	iv := make([][2]int64, len(spans))
	for i, s := range spans {
		iv[i] = [2]int64{s.Start, s.End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	open := false
	for _, v := range iv {
		if !open || v[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = v[0], v[1], true
			continue
		}
		curE = max(curE, v[1])
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfS is layer's self time in seconds (0 for a layer with no spans).
func (l *ledger) selfS(layer string) float64 { return l.self[layer].Seconds() }

// table renders the per-layer self-time split.
func (l *ledger) table() []string {
	layers := make([]string, 0, len(l.self))
	for k := range l.self {
		layers = append(layers, k)
	}
	sort.Slice(layers, func(a, b int) bool { return l.self[layers[a]] > l.self[layers[b]] })
	out := []string{fmt.Sprintf("ledger: %-10s %10s %7s", "layer", "self_s", "share")}
	row := func(name string, d time.Duration) {
		out = append(out, fmt.Sprintf("ledger: %-10s %10.6f %6.1f%%", name, d.Seconds(), 100*ratio(d.Seconds(), l.wall.Seconds())))
	}
	for _, k := range layers {
		row(k, l.self[k])
	}
	row("other", l.other)
	row("wall", l.wall)
	return out
}

// writeSpans writes the rep's spans as JSON lines into dir.
func (l *ledger) writeSpans(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// counters is a snapshot of the program's obs.Default registry.
type counters struct{ snap obs.Snapshot }

func readCounters() counters { return counters{obs.Default.Snapshot()} }

// delta returns the growth of counter name since prev.
func (c counters) delta(prev counters, name string) float64 {
	now, _ := c.snap.Get(name)
	was, _ := prev.snap.Get(name)
	return now.Value - was.Value
}

// histMeanDelta returns the mean of the observations histogram name
// received since prev.
func (c counters) histMeanDelta(prev counters, name string) float64 {
	now, _ := c.snap.Get(name)
	was, _ := prev.snap.Get(name)
	return ratio(now.Sum-was.Sum, float64(now.Count-was.Count))
}

// rtStats is the Go runtime's allocation and GC work over one rep.
type rtStats struct{ allocMB, gcCycles, gcPauseMs float64 }

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func rtSince(before runtime.MemStats) rtStats {
	after := readMem()
	return rtStats{
		allocMB:   float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		gcCycles:  float64(after.NumGC - before.NumGC),
		gcPauseMs: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}

// layerMetrics fills the metrics every workload reports from a traced
// rep: the ledger's self times, the runtime figures and the tracing
// overhead. Layers the workload never called read 0.
func layerMetrics(m map[string]float64, l *ledger, rt rtStats, tracedWall, untracedWall float64) {
	for _, layer := range []string{"trace", "ipet", "fit", "policy", "edfvd", "dbf", "multicore", "sim", "serve", "http"} {
		m[layer+".self_s"] = l.selfS(layer)
	}
	m["other.self_s"] = l.other.Seconds()
	m["rt.alloc_mb"] = rt.allocMB
	m["rt.gc_cycles"] = rt.gcCycles
	m["rt.gc_pause_ms"] = rt.gcPauseMs
	m["bench.trace_overhead"] = ratio(tracedWall, untracedWall) - 1
}

// zeroMetrics sets every named metric to 0: the layers a workload does
// not drive.
func zeroMetrics(m map[string]float64, names ...string) {
	for _, n := range names {
		m[n] = 0
	}
}
