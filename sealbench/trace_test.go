package main

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimesNestedOverlappingAndSiblings(t *testing.T) {
	spans := []Span{
		// Root 0..100 with two siblings 10..30 and 50..60, and two
		// overlapping children 70..90 and 80..95: covered 20+10+25 = 55.
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(50), End: ms(60)},
		{ID: 4, Parent: 1, Name: "c", Start: ms(70), End: ms(90)},
		{ID: 5, Parent: 1, Name: "d", Start: ms(80), End: ms(95)},
		// Nested: a grandchild inside a, and a child of c that runs past
		// its parent's end and is clipped.
		{ID: 6, Parent: 2, Name: "a1", Start: ms(12), End: ms(20)},
		{ID: 7, Parent: 4, Name: "c1", Start: ms(85), End: ms(99)},
		// A child fully inside an earlier, longer sibling's interval.
		{ID: 8, Parent: 1, Name: "e", Start: ms(72), End: ms(75)},
	}
	want := map[int]time.Duration{
		1: ms(45), 2: ms(12), 3: ms(10), 4: ms(15), 5: ms(15), 6: ms(8), 7: ms(14), 8: ms(3),
	}
	got := SelfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
}

func TestLayerTotalsSumPerUnit(t *testing.T) {
	spans := []Span{
		{ID: 1, Unit: "pass-0", Name: "pass", Start: ms(0), End: ms(50)},
		{ID: 2, Parent: 1, Unit: "pass-0", Name: "cir.parse", Start: ms(0), End: ms(10), Allocs: 5},
		{ID: 3, Parent: 1, Unit: "pass-0", Name: "cir.parse", Start: ms(10), End: ms(15), Allocs: 7},
		{ID: 4, Unit: "pass-1", Name: "cir.parse", Start: ms(60), End: ms(64), Allocs: 1},
	}
	totals := LayerTotals(spans)
	if c := totals["cir.parse"]["pass-0"]; c.SelfMS != 15 || c.Allocs != 12 {
		t.Errorf("pass-0 parse = %+v", c)
	}
	if c := totals["pass"]["pass-0"]; c.SelfMS != 35 {
		t.Errorf("pass self = %+v, want 35ms", c)
	}
	if s := perUnit(totals, "cir.parse", func(c *LayerCost) float64 { return c.SelfMS }); s.Median() != 9.5 {
		t.Errorf("median parse per pass = %g, want 9.5", s.Median())
	}
}

// Time a call reports about its own insides becomes a child span, so it
// leaves the caller's self time.
func TestAttributeMovesTimeOutOfParentSelf(t *testing.T) {
	r := NewRecorder(true)
	top := r.Begin("pass-0", "detect.detect", 0)
	r.End(top)
	r.spans[0].Start, r.spans[0].End = ms(10), ms(110)
	r.Attribute("pdg.build", top, ms(40))
	kid := r.Spans()[1]
	if kid.Parent != top || kid.Unit != "pass-0" || kid.Start != ms(10) || kid.End != ms(50) {
		t.Fatalf("attributed span %+v", kid)
	}
	self := SelfTimes(r.Spans())
	if self[top] != ms(60) || self[kid.ID] != ms(40) {
		t.Errorf("self times %v, want detect 60ms and pdg.build 40ms", self)
	}
	off := NewRecorder(false)
	off.Attribute("pdg.build", off.Begin("pass-0", "detect.detect", 0), ms(40))
	if len(off.Spans()) != 0 {
		t.Errorf("disabled recorder kept %d spans", len(off.Spans()))
	}
}

// The overhead compares passes that make identical calls: a disabled
// recorder still runs every wrapped call but records nothing.
func TestOverheadFromIdenticalTracedAndUntracedPasses(t *testing.T) {
	var calls []string
	pass := func(r *Recorder, unit string) {
		top := r.Begin(unit, "pass", 0)
		for _, layer := range []string{"cir.parse", "ir.lower", "pdg.build"} {
			r.Do(unit, layer, top, func() { calls = append(calls, layer) })
		}
		r.End(top)
	}
	on, off := NewRecorder(true), NewRecorder(false)
	pass(off, "pass-0")
	pass(on, "pass-1")
	if len(calls) != 6 || calls[0] != calls[3] || calls[1] != calls[4] || calls[2] != calls[5] {
		t.Fatalf("traced and untraced passes made different calls: %v", calls)
	}
	if len(off.Spans()) != 0 || len(on.Spans()) != 4 {
		t.Fatalf("spans: off %d, on %d; want 0 and 4", len(off.Spans()), len(on.Spans()))
	}
	for _, s := range on.Spans()[1:] {
		if s.Parent != 1 || s.Unit != "pass-1" || s.End < s.Start {
			t.Errorf("span %+v", s)
		}
	}
	if got := overheadPct(Sample{1.10, 1.30, 1.20}, Sample{1.00, 0.90, 1.10}); got < 19.99 || got > 20.01 {
		t.Errorf("overheadPct = %g, want 20", got)
	}
}
