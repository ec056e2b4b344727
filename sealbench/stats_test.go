package main

import (
	"math"
	"strings"
	"testing"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummaryPrintsSampleCounts(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	got := s.Summary("ms")
	want := "p50 50.500 ms (n=100), p90 90.100 ms (n=100)"
	if got != want {
		t.Errorf("Summary = %q, want %q", got, want)
	}
	if got := s[:19].Summary("s"); got != "p50 10.000 s (n=19)" {
		t.Errorf("Summary of 19 samples = %q, want the median alone", got)
	}
	if got := Sample(nil).Summary("s"); got != "no samples" {
		t.Errorf("empty Summary = %q", got)
	}
	if !math.IsNaN(Sample(nil).Median()) {
		t.Error("median of no samples is not NaN")
	}
}

const sampleReport = `NPD in npd0_tw68_probe (drivers/media/npd0/npd0_tw68.c): value ret[npd0_alloc_mem] reaches deref without check
WrongEC in wrongec1_cx88_vbuf_prepare (drivers/media/pci/wrongec1/wrongec1_cx88.c): required value flow lit[-12] -> ret[x] is missing (no realizable path under ret[y] == 0)
NPD in npd0_tw68_probe (drivers/media/npd0/npd0_tw68.c): second report on the same function
MemLeak in adhoc0_gl861_tune (drivers/misc/adhoc0/adhoc0_gl861.c): plain driver flagged
---
4 reports over 7 specs
`

func TestParseReportAndScore(t *testing.T) {
	lines, n, err := ParseReport(sampleReport)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || len(lines) != 4 {
		t.Fatalf("parsed %d lines, summary %d; want 4", len(lines), n)
	}
	if l := lines[1]; l.Kind != "WrongEC" || l.Func != "wrongec1_cx88_vbuf_prepare" || l.File != "drivers/media/pci/wrongec1/wrongec1_cx88.c" {
		t.Errorf("line 1 parsed as %+v", l)
	}
	bugs := map[string]bool{"npd0_tw68_probe": true, "wrongec1_cx88_vbuf_prepare": true, "uaf2_ivtv_remove": true}
	acc := Score(lines, bugs)
	if acc.Reports != 4 || acc.TruePositives != 3 || acc.Found != 2 || acc.Bugs != 3 {
		t.Fatalf("Score = %+v", acc)
	}
	if acc.Precision() != 0.75 || math.Abs(acc.Recall()-2.0/3) > 1e-12 {
		t.Errorf("precision %g recall %g, want 0.75 and 2/3", acc.Precision(), acc.Recall())
	}
}

func TestParseReportRejectsMalformedOutput(t *testing.T) {
	for name, out := range map[string]string{
		"no summary":     "NPD in f (a.c): m\n",
		"count mismatch": "NPD in f (a.c): m\n---\n2 reports over 1 specs\n",
		"bad line":       "something else\n---\n1 reports over 1 specs\n",
	} {
		if _, _, err := ParseReport(out); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	if _, n, err := ParseReport("---\n0 reports over 3 specs\n"); err != nil || n != 0 {
		t.Errorf("empty report: n=%d err=%v", n, err)
	}
	if !strings.Contains(sampleReport, "---") {
		t.Fatal("sample lost its separator")
	}
}
