package seal

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"seal/internal/cache"
	"seal/internal/detect"
	"seal/internal/infer"
)

// Version identifies the analysis semantics baked into every persistent
// cache fingerprint. cache.SchemaVersion covers the on-disk entry shape;
// this covers the analysis itself. Bump it whenever inference or detection
// can produce different results for the same inputs (new relation kinds,
// changed path classification, different dedup): old entries become
// unreachable and every run recomputes.
const Version = "0.6"

// CacheStats is a snapshot of the persistent analysis cache's counters:
// hits, misses, writes, corrupt entries degraded to misses, bytes moved,
// and results deliberately not written (degraded/partial).
type CacheStats = cache.Stats

// ClearCache removes every object the persistent analysis cache owns under
// dir — only the cache's own subtree, never other files sharing the
// directory. Missing directories are fine.
func ClearCache(dir string) error { return cache.Clear(dir) }

// openCache opens the configured cache; an empty dir is the disabled cache
// (nil, on which every operation is a no-op). maxBytes > 0 bounds the
// cache's on-disk size by LRU eviction.
func openCache(dir string, readOnly bool, maxBytes int64) (*cache.Cache, error) {
	if dir == "" {
		return nil, nil
	}
	return cache.OpenLimited(dir, readOnly, maxBytes)
}

// inferConfigPart renders the inference knobs that change results for
// identical sources. Dynamic budget limits (deadline, steps, memory) are
// deliberately excluded: a result is only ever cached when it completed
// un-degraded, and an un-degraded result is budget-invariant. The
// deterministic caps (MaxPaths, MaxDepth) truncate silently, so they are
// part of the key.
func inferConfigPart(opts Options) string {
	return fmt.Sprintf("cfg:validate=%t:maxpaths=%d:maxdepth=%d",
		opts.Validate, opts.Limits.MaxPaths, opts.Limits.MaxDepth)
}

// inferPatchKey is the TierInfer fingerprint chain: schema version (inside
// cache.Key) → seal analysis version → config → patch identity → source
// bytes of both patch sides.
func inferPatchKey(p *Patch, opts Options) string {
	return cache.Key(
		"tier:"+cache.TierInfer,
		"seal:"+Version,
		inferConfigPart(opts),
		"patch:"+p.ID,
		"pre:"+cache.FileSetHash(p.Pre),
		"post:"+cache.FileSetHash(p.Post),
	)
}

// inferRunKey fingerprints a whole inference run (corpus in input order +
// config) for the run-summary tier.
func inferRunKey(patchKeys []string) string {
	parts := make([]string, 0, len(patchKeys)+1)
	parts = append(parts, "tier:"+cache.TierInferRun)
	parts = append(parts, patchKeys...)
	return cache.Key(parts...)
}

// inferCacheEntry is the TierInfer payload: one patch's validated specs
// (conditions in tree form via SpecDB's JSON round trip) and its relation
// statistics.
type inferCacheEntry struct {
	DB    *SpecDB     `json:"db"`
	Stats infer.Stats `json:"stats"`
}

// inferRunEntry is the TierInferRun payload: run-level counters a fully
// warm run replays so its exported metrics match the cold run's.
type inferRunEntry struct {
	SatChecks int64 `json:"sat_checks"`
}

// detectConfigPart renders the detection knobs that change results for
// identical sources; same exclusion rule as inferConfigPart.
func detectConfigPart(limits Limits) string {
	return fmt.Sprintf("cfg:maxpaths=%d:maxdepth=%d:calleedepth=%d",
		limits.MaxPaths, limits.MaxDepth, detect.DefaultMaxCalleeDepth)
}

// SpecSetHash fingerprints a spec list in order, conditions included — the
// spec-side identity in detection cache keys and serve request envelopes.
func SpecSetHash(specs []*Spec) (string, error) {
	return (&SpecDB{Specs: specs}).Hash()
}

// TargetHash fingerprints an in-memory source set — the target-side
// identity in detection cache keys and serve request envelopes.
func TargetHash(files map[string]string) string { return cache.FileSetHash(files) }

// regionsKey is the TierRegions fingerprint: target content and closure
// depth only, so the artifact survives spec-DB changes.
func regionsKey(targetHash string) string {
	return cache.Key(
		"tier:"+cache.TierRegions,
		"seal:"+Version,
		fmt.Sprintf("calleedepth=%d", detect.DefaultMaxCalleeDepth),
		"target:"+targetHash,
	)
}

// ReadSourceDir reads every .c file under root (recursively) into a
// name → source map, the raw-bytes form a cached detection run fingerprints
// before any parsing happens.
func ReadSourceDir(root string) (map[string]string, error) {
	files := make(map[string]string)
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || !strings.HasSuffix(path, ".c") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			rel = path
		}
		files[rel] = string(data)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("seal: no .c files under %s", root)
	}
	return files, nil
}

// DetectRunOptions configures a cached, budgeted detection run.
type DetectRunOptions struct {
	// Workers is the concurrent detection worker count over one shared
	// substrate (output is identical at any count).
	Workers int
	// Limits is the per-unit resource budget.
	Limits Limits
	// Obs, when non-nil, records one unit span per region group — live or
	// replayed from cache — so warm and cold manifests agree.
	Obs *Recorder
	// CacheDir enables the persistent analysis cache rooted there; empty
	// disables it.
	CacheDir string
	// CacheReadOnly serves hits but never writes (shared or archived
	// caches).
	CacheReadOnly bool
	// CacheMaxBytes bounds the persistent cache's total on-disk size;
	// exceeding it evicts least-recently-used entries. 0 = unbounded.
	CacheMaxBytes int64
}

// detectGroupKey is the TierDetectGroup fingerprint chain: schema version
// (inside cache.Key) → seal analysis version → config → target sources →
// the group's scope → the group's own spec subset. Only the last part
// changes when a spec inside the group is edited.
func detectGroupKey(targetHash, scope, groupHash string, limits Limits) string {
	return cache.Key(
		"tier:"+cache.TierDetectGroup,
		"seal:"+Version,
		detectConfigPart(limits),
		"target:"+targetHash,
		"scope:"+scope,
		"specs:"+groupHash,
	)
}

// GroupedStats reports how incremental a grouped detection was.
type GroupedStats struct {
	// Groups is the region-group count of the corpus.
	Groups int
	// Warm counts groups replayed from the memo or the persistent cache.
	Warm int
	// Computed counts groups that ran on the substrate.
	Computed int
}

// DetectFilesCached is DetectFilesGrouped for callers that do not need the
// incrementality report.
func DetectFilesCached(ctx context.Context, files map[string]string, specs []*Spec, opts DetectRunOptions) (*DetectResult, error) {
	res, _, err := DetectFilesGrouped(ctx, files, specs, opts)
	return res, err
}

// DetectFilesGrouped runs a budgeted detection over an in-memory source set
// at region-group granularity: each group replays from the persistent
// cache when its own spec subset is unchanged. When every group hits, the
// sources are fingerprinted but never parsed; otherwise a throwaway
// Resident is built, primed from the cache, and only the missed groups
// compute. The merged result is byte-identical to an uncached run.
func DetectFilesGrouped(ctx context.Context, files map[string]string, specs []*Spec, opts DetectRunOptions) (*DetectResult, GroupedStats, error) {
	pc, err := openCache(opts.CacheDir, opts.CacheReadOnly, opts.CacheMaxBytes)
	if err != nil {
		return nil, GroupedStats{}, err
	}
	acquire := func() (*Resident, error) {
		r, err := NewResidentFiles(files)
		if err != nil {
			return nil, err
		}
		r.primeRegions(pc)
		return r, nil
	}
	return detectGrouped(ctx, cache.FileSetHash(files), acquire, specs, opts, pc, nil)
}

// DetectGrouped is DetectFilesGrouped pinned to this resident substrate,
// with the group memo in front of the persistent cache: a repeated request
// replays from memory, and a spec edit recomputes only the groups it
// touched.
func (r *Resident) DetectGrouped(ctx context.Context, specs []*Spec, opts DetectRunOptions) (*DetectResult, GroupedStats, error) {
	pc, err := openCache(opts.CacheDir, opts.CacheReadOnly, opts.CacheMaxBytes)
	if err != nil {
		return nil, GroupedStats{}, err
	}
	return detectGrouped(ctx, r.TargetHash, func() (*Resident, error) { return r, nil }, specs, opts, pc, &r.memo)
}

// detectGrouped is the one cached, budgeted detection core. It probes
// every region group against the memo and then the disk cache, acquires
// the substrate only when some group missed, runs all missed groups in one
// pass opts.Workers wide, caches each clean group, and folds every group —
// replayed and computed alike — into one result. Replayed groups re-record
// their unit spans so warm and cold manifests agree. acquire is called at
// most once; memo may be nil (persistent cache only).
func detectGrouped(ctx context.Context, targetHash string, acquire func() (*Resident, error), specs []*Spec, opts DetectRunOptions, pc *cache.Cache, memo *sync.Map) (*DetectResult, GroupedStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	groups := detect.ScopeGroups(specs)
	gs := GroupedStats{Groups: len(groups)}
	opts.Obs.SetUnitsTotal(len(groups))
	scopes := make([]string, len(groups))
	keys := make([]string, len(groups))
	parts := make([]detect.Part, len(groups))
	var missed []int
	for gi, g := range groups {
		scopes[gi] = specs[g[0]].Scope()
		subset := make([]*Spec, len(g))
		for k, si := range g {
			subset[k] = specs[si]
		}
		if ghash, err := SpecSetHash(subset); err == nil {
			keys[gi] = detectGroupKey(targetHash, scopes[gi], ghash, opts.Limits)
		}
		ent := probeGroup(keys[gi], memo, pc)
		if ent == nil {
			missed = append(missed, gi)
			continue
		}
		gs.Warm++
		parts[gi] = *ent
		for _, u := range ent.Units {
			if span := opts.Obs.Unit("detect", u.ID); span != nil {
				span.AddStage("slice", 0, 0)
				span.AddStage("solve", 0, 0)
				span.SetCounts(u.Specs, u.Bugs)
				span.End()
			}
		}
	}

	var runErr error
	if len(missed) > 0 {
		r, err := acquire()
		if err != nil {
			return nil, gs, err
		}
		todo := make([][]int, len(missed))
		for k, gi := range missed {
			todo[k] = groups[gi]
		}
		outs, err := r.sh.RunGroups(ctx, specs, todo, opts.Workers, opts.Limits, opts.Obs)
		runErr = err
		// The cache writes run after the compute pass, not on its workers:
		// a file-system call on a worker would wait for a busy processor
		// each time it returns.
		cleanComputed := false
		for k, gi := range missed {
			oc := &outs[k]
			parts[gi] = oc.Part
			if oc.Ran {
				gs.Computed++
			}
			if !oc.Clean() || keys[gi] == "" {
				pc.NoteUncacheable()
				continue
			}
			cleanComputed = true
			ent := oc.Part // a copy: the memo must not pin outs
			if memo != nil {
				memo.Store(keys[gi], &ent)
			}
			pc.Put(cache.TierDetectGroup, keys[gi], &ent)
		}
		if cleanComputed {
			pc.Put(cache.TierRegions, regionsKey(targetHash),
				r.sh.RegionsSnapshot(detect.DefaultMaxCalleeDepth))
		}
	}

	res := detect.Fold(scopes, groups, parts)
	res.PCache = pc.Stats()
	if runErr == nil {
		runErr = ctx.Err()
	}
	return res, gs, runErr
}

// probeGroup looks a group key up in the memo, then in the persistent
// cache, promoting a disk hit into the memo. Nil is a miss; an empty key
// (an unfingerprintable group) always misses.
func probeGroup(key string, memo *sync.Map, pc *cache.Cache) *detect.Part {
	if key == "" {
		return nil
	}
	if memo != nil {
		if v, ok := memo.Load(key); ok {
			return v.(*detect.Part)
		}
	}
	var ent detect.Part
	if !pc.Get(cache.TierDetectGroup, key, &ent) {
		return nil
	}
	if memo != nil {
		memo.Store(key, &ent)
	}
	return &ent
}
