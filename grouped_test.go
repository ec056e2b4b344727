package seal

import (
	"context"
	"encoding/json"
	"testing"

	"seal/internal/detect"
	"seal/internal/faultinject"
	"seal/internal/report"
)

// splitGroups partitions specs into two spec lists holding alternating
// region groups, each in global relative order.
func splitGroups(specs []*Spec) (even, odd []*Spec) {
	for gi, g := range detect.ScopeGroups(specs) {
		for _, si := range g {
			if gi%2 == 0 {
				even = append(even, specs[si])
			} else {
				odd = append(odd, specs[si])
			}
		}
	}
	return even, odd
}

// TestResidentConcurrentCounters runs two detections at once on one fresh
// Resident over disjoint halves of the region groups. Each result's
// substrate counters are counted by its own units, so together they must
// account for the substrate's whole lifetime work exactly — no request
// absorbs the other's PDG builds, path enumerations or index lookups.
func TestResidentConcurrentCounters(t *testing.T) {
	files, specs := benchDetectCorpus(t)
	r, err := NewResidentFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	halves := [2][]*Spec{}
	halves[0], halves[1] = splitGroups(specs)
	var results [2]*DetectResult
	errs := make(chan error, 2)
	start := make(chan struct{})
	for i := range halves {
		go func(i int) {
			<-start
			res, _, err := r.DetectGrouped(context.Background(), halves[i], DetectRunOptions{Workers: 2})
			results[i] = res
			errs <- err
		}(i)
	}
	close(start)
	for range halves {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	sum := results[0].Stats.Merge(results[1].Stats)
	total := r.Stats()
	if sum.EnsureCalls != total.EnsureCalls || sum.EnsureBuilds != total.EnsureBuilds {
		t.Errorf("per-request PDG counters sum to %d calls / %d builds, substrate did %d / %d",
			sum.EnsureCalls, sum.EnsureBuilds, total.EnsureCalls, total.EnsureBuilds)
	}
	if sum != total {
		t.Errorf("per-request counters sum to %+v, substrate lifetime is %+v", sum, total)
	}
}

// TestAbortedRunCachesOnlyFinishedGroups aborts a cached Workers=1 run at
// its second quarantined group (MaxFailures=1). Only the groups that ran
// clean may be cached: a clean rerun over the same cache must recompute
// every quarantined and every skipped group, and its output must match an
// uncached cold run byte for byte.
func TestAbortedRunCachesOnlyFinishedGroups(t *testing.T) {
	files, specs := benchDetectCorpus(t)
	groups := detect.ScopeGroups(specs)
	if len(groups) < 5 {
		t.Fatalf("corpus has %d region groups; the abort scenario needs 5+", len(groups))
	}
	ctx := context.Background()
	cacheDir := t.TempDir()

	// Groups 0 and 2 run clean, 1 and 3 panic, the rest are skipped.
	faultinject.Set(faultinject.NewPlan().
		Add("detect", specs[groups[1][0]].Scope(), faultinject.KindPanic).
		Add("detect", specs[groups[3][0]].Scope(), faultinject.KindPanic))
	aborted, gs, err := DetectFilesGrouped(ctx, files, specs, DetectRunOptions{
		Workers: 1, CacheDir: cacheDir, Limits: Limits{MaxFailures: 1},
	})
	faultinject.Reset()
	if err == nil {
		t.Fatal("two quarantined groups with MaxFailures=1 did not abort the run")
	}
	if len(aborted.Failures) != 2 || gs.Computed != 4 {
		t.Fatalf("aborted run: %d failures, %d groups ran; want 2 and 4", len(aborted.Failures), gs.Computed)
	}

	rerun, gs, err := DetectFilesGrouped(ctx, files, specs, DetectRunOptions{Workers: 1, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	recompute := len(groups) - 2
	if gs.Warm != 2 || gs.Computed != recompute {
		t.Errorf("rerun replayed %d and computed %d groups, want 2 and %d", gs.Warm, gs.Computed, recompute)
	}
	if rerun.PCache.Misses != int64(recompute) {
		t.Errorf("rerun missed the cache %d times, want %d (every quarantined or skipped group)",
			rerun.PCache.Misses, recompute)
	}

	cold, err := DetectFilesCached(ctx, files, specs, DetectRunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	render := func(res *DetectResult) string {
		recs, _ := json.Marshal(res.Recs)
		return report.RenderDetectStdout(res.Recs, res.Degraded, res.Failures, len(specs), true) + string(recs)
	}
	if got, want := render(rerun), render(cold); got != want {
		t.Errorf("rerun over the aborted run's cache differs from a cold run:\n%s\nvs\n%s", got, want)
	}
}
