package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample is a set of measurements of one quantity.
type Sample []float64

// sorted returns an ascending copy.
func (s Sample) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// Quantile is the linearly interpolated q-quantile (0 ≤ q ≤ 1), NaN when
// the sample is empty.
func (s Sample) Quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := s.sorted()
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

// Median is the 0.5-quantile.
func (s Sample) Median() float64 { return s.Quantile(0.5) }

// Mean is the arithmetic mean, NaN when the sample is empty.
func (s Sample) Mean() float64 {
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// tailLevels are the percentiles a timing may be reported at, highest first.
var tailLevels = []float64{99.9, 99, 95, 90, 75, 50}

// TailPercentile returns the highest percentile in tailLevels that has at
// least ten samples strictly beyond it, so every reported tail rests on ten
// or more observations. It returns 0 when even the median lacks them
// (fewer than 20 samples).
func TailPercentile(n int) float64 {
	for _, p := range tailLevels {
		if beyond := int(math.Floor(float64(n)*(100-p)/100 + 1e-9)); beyond >= 10 {
			return p
		}
	}
	return 0
}

// Summary prints a timing as its median and its highest well-supported
// tail percentile, each with the sample count.
func (s Sample) Summary(unit string) string {
	n := len(s)
	if n == 0 {
		return "no samples"
	}
	out := fmt.Sprintf("p50 %.3f %s (n=%d)", s.Median(), unit, n)
	if p := TailPercentile(n); p > 50 {
		out += fmt.Sprintf(", p%g %.3f %s (n=%d)", p, s.Quantile(p/100), unit, n)
	}
	return out
}

// ReportLine is one short-form detection report line:
// "KIND in FUNC (FILE): MESSAGE".
type ReportLine struct {
	Kind, Func, File string
}

// ParseReport extracts the report lines of `seal detect` stdout, stopping
// at the "---" summary separator. It returns the lines and the report count
// the summary states.
func ParseReport(out string) ([]ReportLine, int, error) {
	var lines []ReportLine
	rest := out
	for rest != "" {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		if line == "---" {
			var n, specs int
			summary, _, _ := strings.Cut(rest, "\n")
			if _, err := fmt.Sscanf(summary, "%d reports over %d specs", &n, &specs); err != nil {
				return nil, 0, fmt.Errorf("report summary %q: %v", summary, err)
			}
			if n != len(lines) {
				return nil, 0, fmt.Errorf("report summary states %d reports, found %d lines", n, len(lines))
			}
			return lines, n, nil
		}
		kind, after, ok1 := strings.Cut(line, " in ")
		fn, after2, ok2 := strings.Cut(after, " (")
		file, _, ok3 := strings.Cut(after2, "): ")
		if !ok1 || !ok2 || !ok3 {
			return nil, 0, fmt.Errorf("malformed report line %q", line)
		}
		lines = append(lines, ReportLine{Kind: kind, Func: fn, File: file})
	}
	return nil, 0, fmt.Errorf("report has no summary line")
}

// Accuracy is precision and recall of a report against seeded ground truth.
type Accuracy struct {
	Reports, TruePositives int
	Bugs, Found            int
}

// Precision is true-positive reports over all reports.
func (a Accuracy) Precision() float64 { return float64(a.TruePositives) / float64(a.Reports) }

// Recall is distinct seeded bugs hit over all seeded bugs.
func (a Accuracy) Recall() float64 { return float64(a.Found) / float64(a.Bugs) }

// Score scores report lines against the set of seeded-bug functions: a
// report is a true positive when its function holds a seeded bug, the
// same rule `seal eval` applies.
func Score(lines []ReportLine, bugFuncs map[string]bool) Accuracy {
	a := Accuracy{Reports: len(lines), Bugs: len(bugFuncs)}
	found := make(map[string]bool)
	for _, l := range lines {
		if bugFuncs[l.Func] {
			a.TruePositives++
			found[l.Func] = true
		}
	}
	a.Found = len(found)
	return a
}
