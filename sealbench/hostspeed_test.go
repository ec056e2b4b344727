package main

import (
	"math"
	"testing"
	"time"
)

// A run on a host half as fast as the reference reports its timings
// halved and its rates doubled; counts and ratios are left alone.
func TestMetricsScaleToReferenceHost(t *testing.T) {
	r := &e2e{
		setup:  Sample{2},
		infer:  Sample{4},
		ingest: Sample{1000},
		cold:   Sample{6},
		warm:   Sample{8},
		ops: map[OpKind]Sample{
			OpSpecEdit: {10}, OpFileEdit: {12}, OpRead: {14},
		},
		burstOps:  50,
		burstTime: 10 * time.Second,
		probe:     Sample{1.5 * probeRefMs, 2.5 * probeRefMs},
		acc:       Accuracy{Reports: 4, TruePositives: 3, Bugs: 2, Found: 2},
	}
	want := map[string]float64{
		"setup_s":            1,
		"infer_ms_per_patch": 2,
		"ingest_specs_per_s": 2000,
		"cold_detect_s":      3,
		"warm_detect_s":      4,
		"spec_edit_p50_ms":   5,
		"file_edit_p50_ms":   6,
		"read_p50_ms":        7,
		"serve_ops_per_s":    10,
		"precision":          0.75,
		"recall":             1,
		"peak_rss_mb":        2,
	}
	got := r.metrics(2048)
	if len(got) != len(want) {
		t.Fatalf("metrics = %v, want %d metrics", got, len(want))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || math.Abs(g-w) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, g, w)
		}
	}
}

func TestHostProbeMeasuresTime(t *testing.T) {
	if ms := hostProbe(); !(ms > 0) || math.IsInf(ms, 0) {
		t.Fatalf("hostProbe = %g ms", ms)
	}
}
