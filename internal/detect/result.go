package detect

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seal/internal/budget"
	"seal/internal/cache"
	"seal/internal/faultinject"
	"seal/internal/obs"
	"seal/internal/spec"
)

// Result is the outcome of a budgeted, fault-isolated detection run: the
// merged bug reports of every healthy unit, plus the quarantine and
// degradation records of the units that were not.
type Result struct {
	Bugs []*Bug
	// Recs is the serializable form of Bugs, always populated. It is the
	// report-rendering payload: a warm (cache-replayed) run carries only
	// Recs — no live IR — and renders byte-identically to a cold one
	// because both go through report.RenderRec.
	Recs []BugRec
	// Failures are the quarantined units (panic, deadline, error). Their
	// results are dropped entirely; everything else is unaffected.
	Failures []*budget.FailureRecord
	// Degraded are the units that completed but with budget-truncated
	// results (step/memory caps): their reports are kept, marked.
	Degraded []budget.Degradation
	// Stats are the substrate work this run's units counted themselves
	// (so concurrent runs over one substrate never absorb each other's
	// work), plus the unit outcomes.
	Stats Stats
	// Units summarizes each region group for manifest replay: a warm run
	// re-records one OK unit span per entry so the redacted manifest is
	// byte-identical to the cold run's. Sorted by ID.
	Units []UnitRec
	// SatChecks is the number of solver satisfiability checks this run's
	// units asked for, summed from per-unit counts (replayed from the
	// cache on a warm hit, so exported metrics match the cold run's).
	SatChecks int64
	// PCache is the persistent analysis cache's counter snapshot; zero
	// unless the run was configured with a cache directory.
	PCache cache.Stats
	// Wire is the fold's input records before the dedup merge, with
	// ordinals into the run's own spec list: what a shard worker returns
	// to its coordinator.
	Wire []ShardBug
}

// UnitRec is the serializable per-unit summary of one region group.
type UnitRec struct {
	ID    string `json:"id"`
	Specs int    `json:"specs"`
	Bugs  int    `json:"bugs"`
}

// Quarantined reports whether any unit was quarantined.
func (r *Result) Quarantined() bool { return len(r.Failures) > 0 }

// Part is one batch of fold input: the outcome of one region group, or of
// one shard job covering several. Bug ordinals index the batch's own spec
// list; Fold translates them to global ones. A clean group's Part is also
// what the per-group detection cache stores.
type Part struct {
	Bugs      []ShardBug              `json:"bugs,omitempty"`
	Units     []UnitRec               `json:"units,omitempty"`
	Failures  []*budget.FailureRecord `json:"failures,omitempty"`
	Degraded  []budget.Degradation    `json:"degraded,omitempty"`
	Stats     Stats                   `json:"stats"`
	SatChecks int64                   `json:"sat_checks"`
}

// GroupOutcome is the verdict of one region group from RunGroups: its
// merged reports in wire form with group-local ordinals, its unit summary,
// its failure or degradation, its solver checks, and the substrate
// counters its own unit incremented (both attempts on a retry). The sum of
// those counters over a run is exact; how concurrent groups split work
// they share (a PDG one builds and another reuses) is scheduling.
type GroupOutcome struct {
	Part
	// Ran is false for a group a run-level abort skipped before it
	// started. Such a group has no verdict: its empty Bugs do not mean it
	// is clean, and it must never be cached.
	Ran bool
	// bugs are Part.Bugs in live form, for Result.Bugs.
	bugs []*Bug
}

// Clean reports whether the group ran to completion at full fidelity —
// the only outcome a cache may keep.
func (o *GroupOutcome) Clean() bool {
	return o.Ran && len(o.Failures) == 0 && len(o.Degraded) == 0
}

// unitRun is one attempt at one unit: its verdict, per-spec reports, and
// the span payload (budget spend, slice/solve clocks, substrate work,
// solver checks).
type unitRun struct {
	failure   *budget.FailureRecord
	degraded  *budget.Degradation
	perSpec   [][]*Bug
	spend     budget.Spend
	sliceNs   int64
	solveNs   int64
	work      Stats
	satChecks int64
}

// DetectParallelCtx is DetectParallel with fault isolation: every region
// group (all specs sharing one detection scope) runs as one unit of work
// under its own budget and panic containment. A unit that panics, outlives
// its deadline, or errors is quarantined — its FailureRecord captures the
// stage, budget spent, and stack, its results are dropped, and no worker or
// single-flight waiter is left deadlocked. A unit that merely exhausts a
// quantitative budget finishes Degraded with its partial results kept.
// Remaining units produce output byte-identical to an unfaulted run.
//
// The returned error is non-nil only for run-level aborts (the parent
// context canceled, or more than limits.MaxFailures units quarantined); the
// partial Result is valid either way.
func (sh *Shared) DetectParallelCtx(ctx context.Context, specs []*spec.Spec, workers int, limits budget.Limits) (*Result, error) {
	return sh.DetectParallelCtxObs(ctx, specs, workers, limits, sh.rec)
}

// DetectParallelCtxObs is DetectParallelCtx with an explicit per-run
// recorder. Unlike SetObs — which binds one recorder to the substrate —
// the recorder here is scoped to this call, so any number of concurrent
// runs over one resident substrate can each carry their own observability
// (the serving case: one snapshot, many requests, one manifest per
// request) without racing on shared state. It runs every group, then
// folds them.
func (sh *Shared) DetectParallelCtxObs(ctx context.Context, specs []*spec.Spec, workers int, limits budget.Limits, rec *obs.Recorder) (*Result, error) {
	groups := groupByScope(specs)
	rec.SetUnitsTotal(len(groups))
	outs, err := sh.RunGroups(ctx, specs, groups, workers, limits, rec)
	scopes := make([]string, len(groups))
	parts := make([]Part, len(groups))
	live := make([][]*Bug, len(groups))
	for gi, g := range groups {
		scopes[gi] = specs[g[0]].Scope()
		parts[gi] = outs[gi].Part
		live[gi] = outs[gi].bugs
	}
	res := Fold(scopes, groups, parts)
	res.Bugs = mergeBugs(live)
	return res, err
}

// RunGroups runs region groups — each a list of indices into specs that
// share one detection scope — through one work queue served by workers
// goroutines over the shared substrate, and returns one outcome per group.
// More than limits.MaxFailures quarantined groups, or a canceled ctx,
// aborts the run: groups not yet started come back with Ran false, and
// the error says why.
func (sh *Shared) RunGroups(ctx context.Context, specs []*spec.Spec, groups [][]int, workers int, limits budget.Limits, rec *obs.Recorder) ([]GroupOutcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers = max(1, min(workers, len(groups)))
	outs := make([]GroupOutcome, len(groups))
	var quarantined atomic.Int64
	var aborted atomic.Bool
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// runGroup contains every panic, so a worker never dies and
			// the unbuffered queue below never loses its consumers.
			for gi := range ch {
				if aborted.Load() || ctx.Err() != nil {
					continue
				}
				outs[gi] = sh.runGroup(ctx, specs, groups[gi], limits, rec)
				if len(outs[gi].Failures) > 0 {
					if n := quarantined.Add(1); limits.MaxFailures > 0 && n > int64(limits.MaxFailures) {
						aborted.Store(true)
					}
				}
			}
		}()
	}
	for gi := range groups {
		ch <- gi
	}
	close(ch)
	wg.Wait()
	if aborted.Load() {
		return outs, fmt.Errorf("detect: aborted after %d quarantined units (max %d)",
			quarantined.Load(), limits.MaxFailures)
	}
	return outs, ctx.Err()
}

// Fold combines batches into the Result a whole-corpus run over the same
// specs produces. specIdx[i] maps parts[i]'s local bug ordinals to global
// spec ordinals (a malformed ordinal is dropped, never panicked on); the
// translated records — kept before the merge as Result.Wire — are
// deduplicated and sorted by MergeShardRecs; units sort by ID; and failure
// and degradation records come out in global group order, scopes being
// every group's scope in that order. Per-run solver checks and substrate
// counters are summed. The in-process run, the region-group cache and the
// shard coordinator all fold through here.
func Fold(scopes []string, specIdx [][]int, parts []Part) *Result {
	groupOrd := make(map[string]int, len(scopes))
	for gi, scope := range scopes {
		groupOrd[scope] = gi
	}
	type ordered struct {
		ord     int
		failure *budget.FailureRecord
		degr    *budget.Degradation
	}
	var robust []ordered
	res := &Result{}
	for i, p := range parts {
		for _, sb := range p.Bugs {
			if sb.Ord < 0 || sb.Ord >= len(specIdx[i]) {
				continue
			}
			sb.Ord = specIdx[i][sb.Ord]
			res.Wire = append(res.Wire, sb)
		}
		res.Units = append(res.Units, p.Units...)
		for _, fr := range p.Failures {
			robust = append(robust, ordered{ord: groupOrd[fr.Unit], failure: fr})
		}
		for j := range p.Degraded {
			robust = append(robust, ordered{ord: groupOrd[p.Degraded[j].Unit], degr: &p.Degraded[j]})
		}
		res.Stats = res.Stats.Merge(p.Stats)
		res.SatChecks += p.SatChecks
	}
	res.Recs = MergeShardRecs(res.Wire)
	sort.Slice(res.Units, func(i, j int) bool { return res.Units[i].ID < res.Units[j].ID })
	sort.SliceStable(robust, func(i, j int) bool { return robust[i].ord < robust[j].ord })
	for _, r := range robust {
		if r.failure != nil {
			res.Failures = append(res.Failures, r.failure)
		} else {
			res.Degraded = append(res.Degraded, *r.degr)
		}
	}
	res.Stats.QuarantinedUnits = int64(len(res.Failures))
	res.Stats.DegradedUnits = int64(len(res.Degraded))
	return res
}

// runGroup executes one unit of work, retrying once with a halved budget
// when configured. The unit id is the group's detection scope. When the
// run has a recorder, the whole group — both attempts — is one unit span
// carrying the verdict, stage clocks, and budget spend.
func (sh *Shared) runGroup(ctx context.Context, specs []*spec.Spec, idxs []int, limits budget.Limits, rec *obs.Recorder) GroupOutcome {
	unit := specs[idxs[0]].Scope()
	span := rec.Unit("detect", unit)
	attempts := 1
	run := sh.runUnit(ctx, specs, idxs, limits, unit, 1, rec.Enabled())
	work, satChecks := run.work, run.satChecks
	if run.failure != nil && limits.Retry {
		attempts = 2
		run = sh.runUnit(ctx, specs, idxs, limits.Halved(), unit, 2, rec.Enabled())
		// Both attempts' work and checks count against the group.
		work, satChecks = work.Merge(run.work), satChecks+run.satChecks
		work.RetriedUnits = 1
	}
	nBugs := 0
	for _, b := range run.perSpec {
		nBugs += len(b)
	}
	oc := GroupOutcome{Ran: true, bugs: mergeBugs(run.perSpec)}
	subset := make([]*spec.Spec, len(idxs))
	for k, si := range idxs {
		subset[k] = specs[si]
	}
	oc.Bugs = shardBugsOf(oc.bugs, subset)
	oc.Units = []UnitRec{{ID: unit, Specs: len(idxs), Bugs: nBugs}}
	oc.Stats = work
	oc.SatChecks = satChecks
	if run.failure != nil {
		oc.Failures = []*budget.FailureRecord{run.failure}
	}
	if run.degraded != nil {
		oc.Degraded = []budget.Degradation{*run.degraded}
	}
	if span != nil {
		if attempts > 1 {
			span.SetAttempts(attempts)
		}
		span.SetCounts(len(idxs), nBugs)
		span.AddStage("slice", time.Duration(run.sliceNs), 0)
		span.AddStage("solve", time.Duration(run.solveNs), 0)
		if run.work.Truncations > 0 {
			span.Annotate("truncated", fmt.Sprintf("%d path enumerations cut short", run.work.Truncations))
		}
		switch {
		case run.failure != nil:
			span.SetOutcome(obs.OutcomeQuarantined, string(run.failure.Reason))
		case run.degraded != nil:
			span.SetOutcome(obs.OutcomeDegraded, string(run.degraded.Reason))
			span.Annotate("degraded", run.degraded.Detail)
		}
		span.EndWithSpend(run.spend.Steps, run.spend.MemBytes)
	}
	return oc
}

// runUnit is one attempt at one unit: a fresh budget, a fresh detector, and
// panic containment around the whole group. Per-spec results are returned
// only when the attempt succeeds, so a quarantined attempt leaves no
// partial output behind. timed turns on the slice/solve stage clocks.
func (sh *Shared) runUnit(ctx context.Context, specs []*spec.Spec, idxs []int, limits budget.Limits, unit string, attempt int, timed bool) unitRun {
	var run unitRun
	b := budget.New(ctx, limits)
	defer b.Close()
	d := sh.Detector()
	d.SetBudget(b)
	if timed {
		d.clk = &stageClock{}
	}
	scratch := make([][]*Bug, len(idxs))
	var fr *budget.FailureRecord
	// pprof goroutine labels attribute CPU samples to the unit (one
	// label-set swap per unit, not per operation).
	obs.WithUnitLabels(ctx, "detect", unit, func(context.Context) {
		fr = budget.Protect("detect", unit, b, func() error {
			if err := faultinject.Fire(b.Context(), "detect", unit, b); err != nil {
				return err
			}
			for k, si := range idxs {
				// A unit whose deadline passed (or whose run was canceled) is
				// quarantined; quantitative caps merely degrade it below.
				if err := b.Context().Err(); err != nil {
					return err
				}
				scratch[k] = d.DetectSpec(specs[si])
			}
			return nil
		})
	})
	run.spend = b.Spend()
	run.work = d.unitStats()
	run.satChecks = d.satChecks
	if d.clk != nil {
		run.sliceNs, run.solveNs = d.clk.sliceNs, d.clk.solveNs
	}
	if fr != nil {
		fr.Attempts = attempt
		run.failure = fr
		return run
	}
	run.perSpec = scratch
	if ex := b.Exhausted(); ex != nil {
		run.degraded = &budget.Degradation{Unit: unit, Stage: "detect", Reason: ex.Reason, Detail: ex.Error()}
	}
	return run
}
