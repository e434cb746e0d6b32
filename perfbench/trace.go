package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code around the layer's public function.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int           // index of the enclosing span; -1 at the root
}

// tracer keeps the spans of one goroutine in memory; nothing is
// written until the run ends. It is not safe for concurrent use: each
// load goroutine owns one, and the run merges their totals.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of spans begun and not yet ended
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

// begin opens a span as a child of the innermost open span. On a nil
// tracer (an untraced run) begin and end do nothing.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), parent: parent})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Since(t.origin)
	t.open = t.open[:len(t.open)-1]
}

// layerTotals is the per-name sum of self times and span counts.
type layerTotals struct {
	self  map[string]time.Duration
	count map[string]int
}

func newLayerTotals() layerTotals {
	return layerTotals{self: make(map[string]time.Duration), count: make(map[string]int)}
}

// add folds a finished tracer's spans into the totals. A span's self
// time is its duration minus the part of its interval its child spans
// cover; overlapping children are counted once.
func (lt layerTotals) add(spans []span) {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for i, s := range spans {
		lt.self[s.name] += s.end - s.start - covered(s, children[i])
		lt.count[s.name]++
	}
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}
