package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"seal"
	"seal/internal/budget"
	"seal/internal/cir"
	"seal/internal/dataflow"
	"seal/internal/detect"
	"seal/internal/infer"
	"seal/internal/ir"
	"seal/internal/kernelgen"
	"seal/internal/patch"
	"seal/internal/pdg"
	"seal/internal/report"
	"seal/internal/serve"
	"seal/internal/solver"
	"seal/internal/spec"
	"seal/internal/specdb"
)

// tracer replays a workload's rounds in-process, recording a span around
// each call into a layer's public functions. Nothing inside the program
// is instrumented: spans sit at the calls this file makes.
type tracer struct {
	e     *env
	rec   *Recorder // the active recorder (disabled on untraced passes)
	spans *Recorder // the run's span store
	ctx   context.Context

	files map[string]string

	// Per-pass and per-op counts.
	counts map[string]Sample

	handler http.Handler // the in-process daemon's handler
}

func (t *tracer) count(name string, v float64) { t.counts[name] = append(t.counts[name], v) }

func (t *tracer) check(ok bool, format string, args ...any) bool {
	if !ok {
		t.e.fail(format, args...)
	}
	return ok
}

// pass replays one batch pass: inference, spec codec, store import, the
// detection substrate layer by layer, rendering and the persistent cache.
// editSpec is the spec the pass edits in its store.
func (t *tracer) pass(unit string, editSpec int) {
	e, r := t.e, t.rec
	e.attempted++
	failed0 := e.failed
	top := r.Begin(unit, "pass", 0)
	defer func() {
		r.End(top)
		if e.failed > failed0 {
			e.failed = failed0 + 1 // one failed pass, whatever went wrong in it
		}
	}()

	patches, err := kernelgen.LoadPatches(e.patches)
	if !t.check(err == nil, "load patches: %v", err) {
		return
	}
	var all []*spec.Spec
	paths := 0
	for _, p := range patches {
		var a *patch.Analyzed
		r.Do(unit, "patch.analyze", top, func() { a, err = p.Analyze() })
		if !t.check(err == nil, "analyze %s: %v", p.ID, err) {
			return
		}
		var res *infer.Result
		r.Do(unit, "infer.patch", top, func() { res = infer.InferPatch(a) })
		paths += res.Stats.PrePaths + res.Stats.PostPaths
		var specs []*spec.Spec
		r.Do(unit, "detect.validate", top, func() { specs = detect.ValidateSpecs(a.PostProg, res.Specs) })
		all = append(all, specs...)
	}
	db := &spec.DB{Specs: all}
	db.Dedup()
	t.count("infer.paths", float64(paths))
	t.count("infer.specs", float64(len(db.Specs)))

	var data []byte
	r.Do(unit, "spec.encode", top, func() { data, err = json.MarshalIndent(db, "", "  ") })
	if !t.check(err == nil && bytes.Equal(data, e.refSpecs), "in-process spec database differs from `seal infer` output") {
		return
	}
	var decoded spec.DB
	r.Do(unit, "spec.decode", top, func() { err = json.Unmarshal(data, &decoded) })
	if !t.check(err == nil, "decode specs: %v", err) {
		return
	}
	r.Do(unit, "spec.hash", top, func() { _, err = decoded.Hash() })
	specs := decoded.Specs

	dir := filepath.Join(e.dir, "trace-pass")
	os.RemoveAll(dir)
	os.MkdirAll(dir, 0o755)
	storePath := filepath.Join(dir, "specs.db")
	r.Do(unit, "specdb.import", top, func() {
		var st *specdb.Store
		if st, err = specdb.Create(storePath); err == nil {
			_, _, err = st.ImportSpecs(specs)
			if cerr := st.Close(); err == nil {
				err = cerr
			}
		}
	})
	if !t.check(err == nil, "specdb import: %v", err) {
		return
	}
	// One spec edit on the imported store, through the calls the daemon's
	// POST /specs makes: a one-spec batch folded into a commit, then the
	// whole spec set read back for publication.
	st, err := specdb.Open(storePath)
	if !t.check(err == nil, "open store: %v", err) {
		return
	}
	ss := st.Stats()
	t.count("specdb.pages", float64(ss.Pages))
	t.count("specdb.bytes_per_spec", float64(ss.FileBytes)/float64(len(specs)))
	edited := *specs[editSpec]
	edited.OriginPatch += "+edit"
	r.Do(unit, "specdb.upsert", top, func() {
		b := st.Batch()
		if _, err = b.UpsertSpec(&edited); err == nil {
			err = b.Flush()
		}
	})
	var readBack []*spec.Spec
	if err == nil {
		r.Do(unit, "specdb.snapshot_specs", top, func() { readBack, err = st.Current().Specs() })
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if !t.check(err == nil && len(readBack) == len(specs), "specdb edit: %v (%d specs read back, want %d)", err, len(readBack), len(specs)) {
		return
	}

	// The detection substrate, layer by layer.
	names := make([]string, 0, len(t.files))
	for n := range t.files {
		names = append(names, n)
	}
	sort.Strings(names)
	parsed := make([]*cir.File, 0, len(names))
	for _, n := range names {
		var f *cir.File
		r.Do(unit, "cir.parse", top, func() { f, err = cir.ParseFile(n, t.files[n]) })
		if !t.check(err == nil, "parse %s: %v", n, err) {
			return
		}
		parsed = append(parsed, f)
	}
	var prog *ir.Program
	r.Do(unit, "ir.lower", top, func() { prog, err = ir.NewProgram(parsed...) })
	if !t.check(err == nil, "lower: %v", err) {
		return
	}
	t.count("ir.stmts", float64(len(prog.AllStmts())))
	// The substrate as `seal detect` builds it: pdg.New runs the
	// whole-program points-to analysis (and the call graph), the shared
	// detector indexes the program, and function PDGs are built on demand
	// while detection runs. The PDG times its own builds; that time moves
	// from detect's self time to pdg.build. Detection runs on one worker
	// here so the build time it contains is a plain sum.
	var g *pdg.Graph
	r.Do(unit, "dataflow.pointsto", top, func() { g = pdg.New(prog) })
	var sh *detect.Shared
	r.Do(unit, "progindex.build", top, func() { sh = detect.NewSharedOnGraph(g) })
	sat0 := solver.SatChecks()
	memoHits0, memoMiss0 := solver.SatMemoStats()
	var res *detect.Result
	det := r.Begin(unit, "detect.detect", top)
	res, err = sh.DetectParallelCtx(t.ctx, specs, 1, budget.Limits{})
	r.End(det)
	if !t.check(err == nil, "detect: %v", err) {
		return
	}
	gs := g.Stats()
	r.Attribute("pdg.build", det, time.Duration(gs.BuildNanos))
	memoHits, memoMiss := solver.SatMemoStats()
	t.count("solver.sat_checks", float64(solver.SatChecks()-sat0))
	t.count("solver.sat_memo_hit_ratio", ratio(memoHits-memoHits0, memoMiss-memoMiss0))
	t.count("detect.path_enumerations", float64(res.Stats.PathEnumerations))
	t.count("detect.path_cache_hit_ratio", ratio(res.Stats.PathCacheHits, res.Stats.PathCacheMisses))
	t.count("pdg.builds", float64(gs.EnsureBuilds))
	// The flow analysis runs inside each PDG build. Its share of
	// pdg.build is measured by running it again, after detection, on the
	// functions detection built.
	r.Do(unit, "dataflow.flow", top, func() {
		for _, fn := range prog.FuncList {
			if g.Built(fn) {
				dataflow.FlowAnalyze(fn, g.PTS)
			}
		}
	})
	edges := 0
	for _, fn := range prog.FuncList {
		if g.Built(fn) {
			for _, s := range fn.Stmts() {
				edges += len(g.DataSuccs(s))
			}
		}
	}
	t.count("pdg.edges", float64(edges))
	var out string
	r.Do(unit, "report.render", top, func() {
		out = report.RenderDetectStdout(res.Recs, res.Degraded, res.Failures, len(specs), false)
	})
	if !t.check(out == e.refReport, "in-process report differs from `seal detect` stdout") {
		return
	}

	// The persistent cache: fill a fresh directory, then replay from it,
	// through the detect path the workload's CLI pass takes.
	opts := seal.DetectRunOptions{Workers: 2, CacheDir: filepath.Join(dir, "cache")}
	run := func() (*detect.Result, error) {
		if e.w.StoreDetect {
			res, _, err := seal.DetectFilesGrouped(t.ctx, t.files, specs, opts)
			return res, err
		}
		return seal.DetectFilesCached(t.ctx, t.files, specs, opts)
	}
	var cold, warm *detect.Result
	r.Do(unit, "cache.fill", top, func() { cold, err = run() })
	if !t.check(err == nil, "cached detect: %v", err) {
		return
	}
	var werr error
	r.Do(unit, "cache.replay", top, func() { warm, werr = run() })
	if !t.check(werr == nil, "warm detect: %v", werr) {
		return
	}
	t.count("cache.misses", float64(cold.PCache.Misses))
	t.count("cache.bytes_written", float64(cold.PCache.WriteBytes))
	t.count("cache.hits", float64(warm.PCache.Hits))
	for _, res := range []*detect.Result{cold, warm} {
		got := report.RenderDetectStdout(res.Recs, res.Degraded, res.Failures, len(specs), false)
		if !t.check(got == e.refReport, "cached in-process report differs from `seal detect` stdout") {
			return
		}
	}
}

// firstSpecEdit is the spec the round's first spec edit targets, or the
// first spec if the round has none.
func firstSpecEdit(burst []Op) int {
	for _, op := range burst {
		if op.Kind == OpSpecEdit {
			return op.Target
		}
	}
	return 0
}

// overheadPct is the tracing overhead: how much longer the median traced
// pass ran than the median untraced pass of the same calls, in percent.
func overheadPct(traced, untraced Sample) float64 {
	return 100 * (traced.Median() - untraced.Median()) / untraced.Median()
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// serveReq sends one request straight into the daemon's handler.
func (t *tracer) serveReq(method, path string, body any, out any) (int, bool) {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			t.e.fail("%s %s: %v", method, path, err)
			return 0, false
		}
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(data))
	w := httptest.NewRecorder()
	t.handler.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.e.fail("%s %s: status %d: %s", method, path, w.Code, bytes.TrimSpace(w.Body.Bytes()))
		return w.Body.Len(), false
	}
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.e.fail("%s %s: %v", method, path, err)
			return w.Body.Len(), false
		}
	}
	return w.Body.Len(), true
}

// op replays one burst operation against the in-process daemon handler.
func (t *tracer) op(unit string, op Op, n int) {
	e, r := t.e, t.rec
	e.attempted++
	top := r.Begin(unit, "op."+string(op.Kind), 0)
	defer r.End(top)
	ok := true
	switch op.Kind {
	case OpSpecEdit:
		raw, _ := json.Marshal(map[string]any{"specs": []any{e.specs[op.Target]}})
		var db spec.DB
		if err := json.Unmarshal(raw, &db); err != nil || len(db.Specs) != 1 {
			e.fail("decode spec %d: %v", op.Target, err)
			return
		}
		sp := *db.Specs[0]
		sp.OriginPatch = fmt.Sprintf("%s+edit%d", sp.OriginPatch, n)
		var resp struct {
			Replaced int `json:"replaced"`
		}
		body := map[string]any{"upsert": &spec.DB{Specs: []*spec.Spec{&sp}}}
		r.Do(unit, "serve.specs", top, func() { _, ok = t.serveReq("POST", "/specs", body, &resp) })
		ok = ok && t.check(resp.Replaced == 1, "spec edit replaced %d specs, want 1", resp.Replaced)
	case OpRead:
		var resp struct {
			Matched int `json:"matched"`
		}
		q := readQuery(readQueries[op.Target])
		r.Do(unit, "serve.specs", top, func() { _, ok = t.serveReq("GET", "/specs?q="+url.QueryEscape(q), nil, &resp) })
		ok = ok && t.check(resp.Matched == e.readMatches[op.Target], "spec query %s matched %d specs, want %d", q, resp.Matched, e.readMatches[op.Target])
	case OpFileEdit:
		name := e.files[op.Target]
		body := map[string]any{"files": map[string]string{name: e.corpus.Files[name] + fmt.Sprintf("/* sealbench edit %d */\n", n)}}
		var resp struct {
			RegionsCarried int `json:"regions_carried"`
		}
		r.Do(unit, "serve.edit", top, func() { _, ok = t.serveReq("POST", "/edit", body, &resp) })
		t.count("serve.regions_carried", float64(resp.RegionsCarried))
	}
	if !ok {
		return
	}
	var resp struct {
		Report  string `json:"report"`
		Grouped *struct {
			Computed int `json:"computed"`
		} `json:"grouped"`
	}
	var size int
	r.Do(unit, "serve.detect", top, func() { size, ok = t.serveReq("POST", "/detect", struct{}{}, &resp) })
	if !ok || !t.check(resp.Report == e.refReport, "in-process daemon report differs from the reference report") {
		return
	}
	t.count("serve.response_kb", float64(size)/1024)
	if op.Kind == OpSpecEdit && resp.Grouped != nil {
		t.count("detect.groups_computed", float64(resp.Grouped.Computed))
	}
}

// goMetrics reads the runtime counters the go.* layer metrics come from.
func goMetrics() (gcCPU, totalCPU, allocBytes float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())
}

// runTraced replays the workload in-process for the run's duration:
// rounds of one pass and one burst, passes alternating between the span
// recorder on and off so the tracing overhead is measured on identical
// calls. It returns the per-layer metrics and writes the spans.
func (e *env) runTraced(seconds int, spansPath string) (map[string]float64, error) {
	// One CLI pass fixes the references the replay must reproduce.
	if !e.pass().ok {
		return nil, fmt.Errorf("reference pass failed: %v", e.failures)
	}
	files, err := seal.ReadSourceDir(e.tree)
	if err != nil {
		return nil, err
	}
	t := &tracer{e: e, ctx: context.Background(), files: files, counts: make(map[string]Sample)}
	t.spans = NewRecorder(true)
	off := NewRecorder(false)

	// The in-process daemon serves a store of the reference specs.
	var db spec.DB
	if err := json.Unmarshal(e.refSpecs, &db); err != nil {
		return nil, err
	}
	dir := filepath.Join(e.dir, "trace-serve")
	os.MkdirAll(dir, 0o755)
	storePath := filepath.Join(dir, "daemon.db")
	if _, _, err := seal.ImportSpecStore(storePath, &db); err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Workers: 2, SpecDB: storePath}, files, nil)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	t.handler = srv.Handler()

	plan := e.w.Plan(e.seed, maxRounds, e.nSpecs, len(e.files))
	fmt.Printf("corpus digest %s, op-sequence digest %s\n", CorpusDigest(e.corpus), PlanDigest(plan))
	var onPass, offPass Sample
	var passAlloc Sample
	gc0, cpu0, _ := goMetrics()
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	n := 0
	// At least two rounds, so both an untraced and a traced pass run.
	for r := 0; r < len(plan) && (r < 2 || time.Now().Before(deadline)); r++ {
		traced := r%2 == 1
		t.rec = off
		if traced {
			t.rec = t.spans
		}
		_, _, a0 := goMetrics()
		start := time.Now()
		t.pass(fmt.Sprintf("pass-%d", r), firstSpecEdit(plan[r]))
		wall := time.Since(start).Seconds()
		_, _, a1 := goMetrics()
		if traced {
			onPass = append(onPass, wall)
			passAlloc = append(passAlloc, (a1-a0)/(1<<20))
		} else {
			offPass = append(offPass, wall)
		}
		t.rec = t.spans
		for _, op := range plan[r] {
			if r >= 2 && !time.Now().Before(deadline) {
				break
			}
			n++
			t.op(fmt.Sprintf("op-%d", n), op, n)
		}
		if r == 0 {
			// The daemon's store after the first round's burst, a fixed
			// number of edits whatever the host's speed.
			var stats struct {
				SpecStore *specdb.StoreStats `json:"spec_store"`
			}
			if _, ok := t.serveReq("GET", "/stats", nil, &stats); ok && t.check(stats.SpecStore != nil, "daemon /stats has no spec_store block") {
				t.count("specdb.dead_page_ratio", stats.SpecStore.DeadPageRatio)
			}
		}
	}
	gc1, cpu1, _ := goMetrics()

	if err := t.spans.WriteFile(spansPath); err != nil {
		return nil, err
	}
	values, nSamples := t.layerMetrics(onPass, offPass, passAlloc, (gc1-gc0)/(cpu1-cpu0))
	for _, lm := range perLayerMetrics {
		fmt.Printf("%s: %.4f %s (n=%d)\n", lm.name, values[lm.name], lm.unit, nSamples[lm.name])
	}
	return values, nil
}

// perLayerMetrics are the traced run's metrics, named <module>.<metric>.
var perLayerMetrics = []struct {
	name, unit string
}{
	{"cir.parse_ms", "ms"}, {"cir.parse_allocs", "count"}, {"ir.lower_ms", "ms"}, {"ir.stmts", "count"},
	{"progindex.build_ms", "ms"},
	{"patch.analyze_ms", "ms"}, {"infer.patch_ms", "ms"}, {"infer.paths", "count"}, {"infer.specs", "count"},
	{"detect.validate_ms", "ms"},
	{"dataflow.pointsto_ms", "ms"}, {"dataflow.flow_ms", "ms"}, {"dataflow.allocs", "count"},
	{"pdg.build_ms", "ms"}, {"pdg.builds", "count"}, {"pdg.edges", "count"},
	{"detect.detect_ms", "ms"}, {"detect.allocs", "count"}, {"detect.path_enumerations", "count"},
	{"detect.path_cache_hit_ratio", "ratio"}, {"detect.groups_computed", "count"},
	{"solver.sat_checks", "count"}, {"solver.sat_memo_hit_ratio", "ratio"},
	{"spec.encode_ms", "ms"}, {"spec.decode_ms", "ms"}, {"spec.hash_ms", "ms"},
	{"specdb.import_ms", "ms"}, {"specdb.import_allocs", "count"}, {"specdb.bytes_per_spec", "bytes"},
	{"specdb.pages", "count"}, {"specdb.upsert_ms", "ms"}, {"specdb.snapshot_specs_ms", "ms"},
	{"specdb.dead_page_ratio", "ratio"},
	{"cache.hits", "count"}, {"cache.misses", "count"}, {"cache.bytes_written", "bytes"}, {"cache.replay_ms", "ms"},
	{"report.render_ms", "ms"},
	{"serve.specs_ms", "ms"}, {"serve.detect_ms", "ms"}, {"serve.edit_ms", "ms"}, {"serve.response_kb", "KiB"},
	{"serve.regions_carried", "count"},
	{"go.gc_cpu_fraction", "ratio"}, {"go.alloc_mb", "MiB"}, {"go.heap_peak_mb", "MiB"},
	{"trace.overhead_pct", "%"},
}

// layerMetrics reduces the spans and counts to the per-layer metrics:
// times are the median over passes (or requests) of the layer's summed
// self time in one, allocations likewise, counts the median per pass. It
// also returns each metric's sample count.
func (t *tracer) layerMetrics(onPass, offPass, passAlloc Sample, gcFraction float64) (map[string]float64, map[string]int) {
	totals := LayerTotals(t.spans.Spans())
	samples := map[string]Sample{
		"go.alloc_mb":     passAlloc,
		"cache.replay_ms": perUnit(totals, "cache.replay", func(c *LayerCost) float64 { return c.SelfMS }),
	}
	for metric, layers := range map[string][]string{
		"cir.parse_allocs":     {"cir.parse"},
		"dataflow.allocs":      {"dataflow.pointsto", "dataflow.flow"},
		"detect.allocs":        {"detect.detect"},
		"specdb.import_allocs": {"specdb.import"},
	} {
		byUnit := make(map[string]float64)
		for _, l := range layers {
			for u, c := range totals[l] {
				byUnit[u] += c.Allocs
			}
		}
		var s Sample
		for _, v := range byUnit {
			s = append(s, v)
		}
		samples[metric] = s
	}
	for _, lm := range perLayerMetrics {
		if _, done := samples[lm.name]; done {
			continue
		}
		if lm.unit == "ms" {
			samples[lm.name] = perUnit(totals, strings.TrimSuffix(lm.name, "_ms"), func(c *LayerCost) float64 { return c.SelfMS })
		} else {
			samples[lm.name] = t.counts[lm.name]
		}
	}
	values := make(map[string]float64, len(perLayerMetrics))
	n := make(map[string]int, len(perLayerMetrics))
	for name, s := range samples {
		values[name], n[name] = s.Median(), len(s)
	}
	values["go.gc_cpu_fraction"], n["go.gc_cpu_fraction"] = gcFraction, 1
	values["go.heap_peak_mb"], n["go.heap_peak_mb"] = float64(t.spans.peakHeap)/(1<<20), 1
	values["trace.overhead_pct"], n["trace.overhead_pct"] = overheadPct(onPass, offPass), len(onPass)+len(offPass)
	return values, n
}
