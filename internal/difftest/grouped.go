package difftest

// Grouped-core differential configuration: the region-group detection
// core behind every cached detection (probe memo and disk, one compute
// pass over the missed groups, per-group cache, one fold) must reproduce
// the bare compute core — detect.Shared.DetectParallelCtxObs over a fresh
// substrate, no cache and no grouping layer — on the whole comparison
// surface, cold and warm, at any worker count. The surface keeps the PDG
// ensure and build counters: groups count their own work, so the sum over
// a run must be exact.

import (
	"context"
	"fmt"
	"path/filepath"

	"seal"
	"seal/internal/budget"
	"seal/internal/detect"
	"seal/internal/spec"
)

// bareCoreRun detects through the compute core alone, over a fresh
// substrate, and builds the comparison surface.
func bareCoreRun(ctx context.Context, files map[string]string, specs []*spec.Spec, workers int, strict bool) (*shardSurface, error) {
	target, err := seal.LoadFiles(files)
	if err != nil {
		return nil, err
	}
	specsHash, err := seal.SpecSetHash(specs)
	if err != nil {
		return nil, err
	}
	base := seal.NewObsBaseline()
	rec := seal.NewRecorder()
	rec.StartRun("detect")
	sh := detect.NewShared(target.Prog)
	res, err := sh.DetectParallelCtxObs(ctx, specs, workers, budget.Limits{}, rec)
	if err != nil {
		return nil, err
	}
	// The reference's substrate counters are the fresh substrate's lifetime
	// totals, not the per-unit sums the grouped core is built from. The run
	// is clean, so there are no unit verdicts to carry over.
	res.Stats = sh.Stats()
	return buildSurface(rec, res, len(specs), seal.TargetHash(files), specsHash, base, strict)
}

// groupedCoreRun detects through the grouped core and builds the
// comparison surface.
func groupedCoreRun(ctx context.Context, files map[string]string, specs []*spec.Spec, workers int, cacheDir string, strict bool) (*shardSurface, seal.GroupedStats, error) {
	specsHash, err := seal.SpecSetHash(specs)
	if err != nil {
		return nil, seal.GroupedStats{}, err
	}
	base := seal.NewObsBaseline()
	rec := seal.NewRecorder()
	rec.StartRun("detect")
	res, gs, err := seal.DetectFilesGrouped(ctx, files, specs, seal.DetectRunOptions{
		Workers: workers, Obs: rec, CacheDir: cacheDir,
	})
	if err != nil {
		return nil, gs, err
	}
	surf, err := buildSurface(rec, res, len(specs), seal.TargetHash(files), specsHash, base, strict)
	return surf, gs, err
}

// RunGroupedCoreCase is the grouped-core differential protocol for one
// corpus, run inside dir (a test temp directory). At Workers 1 and 4, a
// cold uncached, a cold cached and a fully warm grouped run must each
// match the bare compute core exactly. Then one spec is edited in place:
// the partially warm run over the edited corpus recomputes one group and
// must match the bare core over the edited specs with the substrate
// counters redacted (a warm group's counters were counted on another
// substrate). Returns the divergences.
func RunGroupedCoreCase(seed int64, dir string) ([]Divergence, error) {
	ctx := context.Background()
	files, specs, err := ShardCorpus(seed)
	if err != nil {
		return nil, err
	}
	var divs []Divergence
	for _, workers := range []int{1, 4} {
		ref, err := bareCoreRun(ctx, files, specs, workers, true)
		if err != nil {
			return nil, fmt.Errorf("seed %d: bare core: %w", seed, err)
		}
		cacheDir := filepath.Join(dir, fmt.Sprintf("cache-w%d", workers))
		for _, run := range []struct{ conf, cacheDir string }{
			{"cold uncached", ""}, {"cold cached", cacheDir}, {"warm", cacheDir},
		} {
			conf := fmt.Sprintf("grouped %s workers=%d", run.conf, workers)
			got, gs, err := groupedCoreRun(ctx, files, specs, workers, run.cacheDir, true)
			if err != nil {
				return nil, fmt.Errorf("seed %d: %s: %w", seed, conf, err)
			}
			divs = compareSurface(divs, conf, ref, got)
			if run.conf == "warm" && gs.Warm != gs.Groups {
				divs = append(divs, Divergence{Stage: "grouped", Conf: conf + " group stats",
					Ref: fmt.Sprintf("warm=%d", gs.Groups), Got: fmt.Sprintf("warm=%d", gs.Warm)})
			}
		}
	}

	edited := append([]*spec.Spec(nil), specs...)
	e := *edited[0]
	e.OriginPatch += "-edited"
	edited[0] = &e
	ref, err := bareCoreRun(ctx, files, edited, 1, false)
	if err != nil {
		return nil, fmt.Errorf("seed %d: edited bare core: %w", seed, err)
	}
	got, gs, err := groupedCoreRun(ctx, files, edited, 1, filepath.Join(dir, "cache-w1"), false)
	if err != nil {
		return nil, fmt.Errorf("seed %d: edited grouped run: %w", seed, err)
	}
	divs = compareSurface(divs, "grouped one-spec edit", ref, got)
	if gs.Computed != 1 || gs.Warm != gs.Groups-1 {
		divs = append(divs, Divergence{Stage: "grouped", Conf: "edit group stats",
			Ref: fmt.Sprintf("warm=%d computed=1", gs.Groups-1),
			Got: fmt.Sprintf("warm=%d computed=%d", gs.Warm, gs.Computed)})
	}
	return divs, nil
}
