package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// Span is one timed call into a layer. Spans of one pass or request share
// Unit; Parent is the ID of the enclosing span (0 at the top).
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Unit   string        `json:"unit"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Allocs uint64        `json:"allocs"`
}

// Recorder keeps spans in memory until the run ends. A disabled recorder
// makes every call a no-op, so a pass with it off makes the same calls
// into the program as a traced one.
type Recorder struct {
	on    bool
	t0    time.Time
	spans []Span
	// samples reads the heap-allocation count and the live heap size.
	samples [2]metrics.Sample
	// peakHeap is the largest live heap seen at a span boundary.
	peakHeap uint64
}

// NewRecorder returns a recorder; on=false gives the disabled one.
func NewRecorder(on bool) *Recorder {
	r := &Recorder{on: on, t0: time.Now()}
	r.samples[0].Name = "/gc/heap/allocs:objects"
	r.samples[1].Name = "/memory/classes/heap/objects:bytes"
	return r
}

// heapAllocs returns the cumulative heap-allocation count and notes the
// live heap size.
func (r *Recorder) heapAllocs() uint64 {
	metrics.Read(r.samples[:])
	r.peakHeap = max(r.peakHeap, r.samples[1].Value.Uint64())
	return r.samples[0].Value.Uint64()
}

// Begin opens a span and returns its ID (0 when disabled).
func (r *Recorder) Begin(unit, name string, parent int) int {
	if !r.on {
		return 0
	}
	r.spans = append(r.spans, Span{
		ID: len(r.spans) + 1, Parent: parent, Unit: unit, Name: name,
		Start: time.Since(r.t0), Allocs: r.heapAllocs(),
	})
	return len(r.spans)
}

// End closes the span id; the span's Allocs becomes the heap-allocation
// delta over its interval.
func (r *Recorder) End(id int) {
	if id == 0 {
		return
	}
	s := &r.spans[id-1]
	s.End = time.Since(r.t0)
	s.Allocs = r.heapAllocs() - s.Allocs
}

// Attribute records that d of span parent's time went to a child layer the
// recorder could not wrap, such as work the program times itself inside
// one call. Only the length is known, so the child is placed at the
// parent's start; it carries no allocations of its own.
func (r *Recorder) Attribute(name string, parent int, d time.Duration) {
	if parent == 0 {
		return
	}
	p := r.spans[parent-1]
	r.spans = append(r.spans, Span{
		ID: len(r.spans) + 1, Parent: parent, Unit: p.Unit, Name: name,
		Start: p.Start, End: p.Start + d,
	})
}

// Do runs fn inside a span.
func (r *Recorder) Do(unit, name string, parent int, fn func()) {
	id := r.Begin(unit, name, parent)
	fn()
	r.End(id)
}

// Spans returns the recorded spans.
func (r *Recorder) Spans() []Span { return r.spans }

// WriteFile writes the spans as JSON.
func (r *Recorder) WriteFile(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// SelfTimes maps each span ID to its self time: its duration minus the
// part of its interval covered by the union of its children's intervals.
// Overlapping children (concurrent work) are counted once, and a child
// running past its parent is clipped to the parent.
func SelfTimes(spans []Span) map[int]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		cur := s.Start // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// LayerTotals sums self time (ms) and allocations per (span name, unit):
// the per-pass or per-request cost of each layer.
func LayerTotals(spans []Span) map[string]map[string]*LayerCost {
	self := SelfTimes(spans)
	out := make(map[string]map[string]*LayerCost)
	for _, s := range spans {
		byUnit := out[s.Name]
		if byUnit == nil {
			byUnit = make(map[string]*LayerCost)
			out[s.Name] = byUnit
		}
		c := byUnit[s.Unit]
		if c == nil {
			c = &LayerCost{}
			byUnit[s.Unit] = c
		}
		c.SelfMS += float64(self[s.ID]) / float64(time.Millisecond)
		c.Allocs += float64(s.Allocs)
	}
	return out
}

// LayerCost is one layer's cost within one unit.
type LayerCost struct {
	SelfMS, Allocs float64
}

// perUnit collects one field of a layer's per-unit costs into a sample.
func perUnit(totals map[string]map[string]*LayerCost, name string, field func(*LayerCost) float64) Sample {
	var s Sample
	for _, c := range totals[name] {
		s = append(s, field(c))
	}
	return s
}
