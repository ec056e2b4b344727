// Command sealbench is the repository benchmark. It generates a seeded
// kernelgen corpus, drives the built `seal` binary through a workload for
// a fixed time, checks every output against the first pass's reference
// and the corpus ground truth, and prints one JSON result line last.
//
// With -trace 0 it measures the end-to-end metrics through the CLI and
// the daemon. With -trace 1 it replays the same work in-process, records
// a span around each call into a layer, prints the per-layer metrics and
// writes the spans to a file.
//
// Run it from the repository root through the launcher, which builds both
// binaries first:
//
//	bash sealbench/run.sh --workload eval-batch --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// endToEndUnits are the units of the end-to-end metrics.
var endToEndUnits = map[string]string{
	"infer_ms_per_patch": "ms",
	"ingest_specs_per_s": "1/s",
	"cold_detect_s":      "s",
	"warm_detect_s":      "s",
	"precision":          "ratio",
	"recall":             "ratio",
	"spec_edit_p50_ms":   "ms",
	"file_edit_p50_ms":   "ms",
	"read_p50_ms":        "ms",
	"serve_ops_per_s":    "1/s",
	"peak_rss_mb":        "MiB",
	"setup_s":            "s",
}

func main() {
	workload := flag.String("workload", "", "workload name: eval-batch, k30-batch or serve-churn")
	seed := flag.Int64("seed", 42, "corpus and op-sequence seed")
	seconds := flag.Int("seconds", 30, "measured duration of the run")
	trace := flag.Int("trace", 0, "1 = traced in-process run reporting per-layer metrics")
	sealBin := flag.String("seal", ".bench_build/seal", "built seal binary")
	out := flag.String("out", ".bench_build/out", "directory for the run's work files and span dumps")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *sealBin, *out); err != nil {
		fmt.Fprintln(os.Stderr, "sealbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int, sealBin, out string) error {
	w, err := workloadByName(workload)
	if err != nil {
		return err
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("bad -seconds %d or -trace %d", seconds, trace)
	}
	if _, err := os.Stat(sealBin); err != nil {
		return fmt.Errorf("seal binary: %w", err)
	}
	sealBin, _ = filepath.Abs(sealBin)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	e, err := newEnv(sealBin, out, w, seed)
	if err != nil {
		return err
	}
	defer os.RemoveAll(e.dir)

	var values map[string]float64
	units := endToEndUnits
	if trace == 1 {
		spansPath := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", w.Name, seed))
		if values, err = e.runTraced(seconds, spansPath); err != nil {
			return err
		}
		units = make(map[string]string)
		for _, lm := range perLayerMetrics {
			units[lm.name] = lm.unit
		}
		fmt.Printf("workload %s seed %d: traced in-process run, spans in %s\n", w.Name, seed, spansPath)
	} else {
		res, err := e.runEndToEnd(seconds)
		if err != nil {
			return err
		}
		res.describe(os.Stdout, e)
		values = res.metrics(e.peakRSSKB)
	}
	for _, f := range e.failures {
		fmt.Fprintln(os.Stderr, "sealbench: failed:", f)
	}

	line := resultLine{Attempted: e.attempted, Failed: e.failed, Metrics: make(map[string]metricOut)}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	finite := true
	for _, name := range names {
		v := values[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite = false
			fmt.Fprintf(os.Stderr, "sealbench: metric %s has no samples\n", name)
			v = 0
		}
		line.Metrics[name] = metricOut{Value: v, Unit: units[name]}
	}
	line.Correct = e.failed == 0 && finite
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
