package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the driver into a layer. Parent is the index
// of the span that caused it (-1 for a root); Trace is the transid, shared
// by every span of one transaction.
type span struct {
	Name       string
	Trace      string
	Parent     int
	Start, End int64 // ns since the tracer was created
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the same driver code serves the traced and untraced runs.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

const noSpan = -1

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its index, or noSpan on a nil tracer.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// setTrace stamps a span with its transaction's transid once it is known.
func (t *tracer) setTrace(id int, trace string) {
	if t == nil || id == noSpan {
		return
	}
	t.mu.Lock()
	t.spans[id].Trace = trace
	t.mu.Unlock()
}

// selfTimes returns, for every span, its duration minus the part of that
// interval its child spans cover (overlapping children are not counted
// twice, and a child is clipped to its parent).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanTotals sums durations, self times and counts by span name.
type spanTotals struct {
	dur, self map[string]int64
	n         map[string]int
}

func totalSpans(spans []span) spanTotals {
	t := spanTotals{dur: map[string]int64{}, self: map[string]int64{}, n: map[string]int{}}
	self := selfTimes(spans)
	for i, s := range spans {
		t.dur[s.Name] += s.End - s.Start
		t.self[s.Name] += self[i]
		t.n[s.Name]++
	}
	return t
}

// meanUs is the mean duration of the named spans in microseconds.
func (t spanTotals) meanUs(name string) float64 {
	return ratio(float64(t.dur[name])/1e3, float64(t.n[name]))
}

// writeSpans dumps the spans as one JSON object per line.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	for i, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"trace":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			i, s.Parent, s.Name, s.Trace, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
