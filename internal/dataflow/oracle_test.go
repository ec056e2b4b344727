package dataflow

import (
	"fmt"
	"sort"
	"testing"

	"seal/internal/cir"
	"seal/internal/ir"
	"seal/internal/kernelgen"
	"seal/internal/randprog"
)

// flowAnalyzeReference is FlowAnalyze with the alias decision made the
// plain way: every (reaching def, use) pair the two shape tests cannot
// decide goes to the pairwise MayAlias, which resolves both access paths
// anew. It is the oracle for FlowAnalyze's once-per-call cell
// resolution.
func flowAnalyzeReference(fn *ir.Func, pts *PointsTo) *FuncFlow {
	ff := &FuncFlow{
		Fn:      fn,
		UseDefs: make(map[*ir.Stmt][]DataDep),
		DefUses: make(map[*ir.Stmt][]DataDep),
	}
	var defs []flowDef
	defIdx := make(map[*ir.Stmt][]int)
	for _, b := range fn.Blocks {
		for _, s := range b.Stmts {
			for _, dl := range EffectiveDefsFlagged(fn, s) {
				defIdx[s] = append(defIdx[s], len(defs))
				defs = append(defs, flowDef{stmt: s, loc: dl.Loc, strong: isStrong(dl.Loc), effect: dl.Effect})
			}
		}
	}
	n := len(defs)
	alias := func(a, b ir.Loc) bool {
		if a.Base == b.Base && a.SameShape(b) {
			return true
		}
		if isStrong(a) && isStrong(b) && a.Base != b.Base {
			return false
		}
		if pts == nil {
			return a.Base == b.Base
		}
		return pts.MayAlias(fn, a, fn, b)
	}
	type bits []bool
	union := func(dst, src bits) bool {
		changed := false
		for i, v := range src {
			if v && !dst[i] {
				dst[i] = true
				changed = true
			}
		}
		return changed
	}
	apply := func(set bits, s *ir.Stmt) {
		for _, di := range defIdx[s] {
			d := defs[di]
			if !d.strong {
				continue
			}
			for j := range defs {
				if defs[j].stmt != s && defs[j].loc.Equal(d.loc) {
					set[j] = false
				}
			}
		}
		for _, di := range defIdx[s] {
			set[di] = true
		}
	}
	in := make(map[*ir.Block]bits)
	out := make(map[*ir.Block]bits)
	for _, b := range fn.Blocks {
		in[b] = make(bits, n)
		out[b] = make(bits, n)
	}
	work := append([]*ir.Block{}, fn.Blocks...)
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		ib := make(bits, n)
		for _, p := range b.Preds {
			union(ib, out[p])
		}
		in[b] = ib
		ob := append(bits{}, ib...)
		for _, s := range b.Stmts {
			apply(ob, s)
		}
		if union(out[b], ob) {
			work = append(work, b.Succs...)
		}
	}
	seenDep := make(map[[3]interface{}]bool)
	for _, b := range fn.Blocks {
		cur := append(bits{}, in[b]...)
		for _, s := range b.Stmts {
			for _, u := range EffectiveUses(fn, s) {
				var regular, effects []int
				for j := range defs {
					if !cur[j] || defs[j].stmt == s {
						continue
					}
					if alias(defs[j].loc, u) {
						if defs[j].effect {
							effects = append(effects, j)
						} else {
							regular = append(regular, j)
						}
					}
				}
				chosen := regular
				if len(chosen) == 0 {
					chosen = effects
				}
				for _, j := range chosen {
					key := [3]interface{}{defs[j].stmt, s, u.Key()}
					if !seenDep[key] {
						seenDep[key] = true
						dep := DataDep{Def: defs[j].stmt, Use: s, Loc: u}
						ff.Deps = append(ff.Deps, dep)
						ff.UseDefs[s] = append(ff.UseDefs[s], dep)
						ff.DefUses[defs[j].stmt] = append(ff.DefUses[defs[j].stmt], dep)
					}
				}
				if len(chosen) == 0 {
					ff.Unrooted = append(ff.Unrooted, DataDep{Use: s, Loc: u})
				}
			}
			apply(cur, s)
		}
	}
	return ff
}

// depsDiff returns "" when two dependence lists are identical in order,
// else a description of the first difference.
func depsDiff(got, want []DataDep) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d deps, reference has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Def != w.Def || g.Use != w.Use || !g.Loc.Equal(w.Loc) {
			return fmt.Sprintf("dep %d: %v -> %v (%v), reference %v -> %v (%v)", i, g.Def, g.Use, g.Loc, w.Def, w.Use, w.Loc)
		}
	}
	return ""
}

// flowDiff compares two solutions of the same function field by field.
func flowDiff(got, want *FuncFlow) string {
	if d := depsDiff(got.Deps, want.Deps); d != "" {
		return "Deps: " + d
	}
	if d := depsDiff(got.Unrooted, want.Unrooted); d != "" {
		return "Unrooted: " + d
	}
	for name, pair := range map[string][2]map[*ir.Stmt][]DataDep{
		"UseDefs": {got.UseDefs, want.UseDefs},
		"DefUses": {got.DefUses, want.DefUses},
	} {
		g, w := pair[0], pair[1]
		if len(g) != len(w) {
			return fmt.Sprintf("%s: %d keys, reference has %d", name, len(g), len(w))
		}
		for s, wd := range w {
			if d := depsDiff(g[s], wd); d != "" {
				return fmt.Sprintf("%s[%v]: %s", name, s, d)
			}
		}
	}
	return ""
}

// oracleCorpus returns the programs the alias oracle runs over: the
// kernelgen tree at Instances=3 (the eval corpus) and randprog programs
// with and without loops.
func oracleCorpus(t *testing.T) map[string]*ir.Program {
	t.Helper()
	progs := make(map[string]*ir.Program)
	cfg := kernelgen.EvalConfig()
	cfg.Instances = 3
	files := kernelgen.Generate(cfg).Files
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	var parsed []*cir.File
	for _, n := range names {
		f, err := cir.ParseFile(n, files[n])
		if err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, f)
	}
	p, err := ir.NewProgram(parsed...)
	if err != nil {
		t.Fatal(err)
	}
	progs["kernelgen"] = p
	for _, loops := range []bool{true, false} {
		opts := randprog.Default()
		opts.Loops = loops
		for seed := int64(0); seed < 40; seed++ {
			f, err := cir.ParseFile("rand.c", randprog.Program(seed, 3, opts))
			if err != nil {
				t.Fatal(err)
			}
			rp, err := ir.NewProgram(f)
			if err != nil {
				t.Fatal(err)
			}
			progs[fmt.Sprintf("randprog/seed=%d/loops=%v", seed, loops)] = rp
		}
	}
	return progs
}

// TestFlowAliasOracle checks that FlowAnalyze, which resolves each def's
// and each use's cells at most once per call, computes exactly what the
// pairwise-MayAlias reference computes — the same Deps, UseDefs, DefUses
// and Unrooted, in the same order — on every function of the corpus, and
// without points-to facts too.
func TestFlowAliasOracle(t *testing.T) {
	funcs, deps := 0, 0
	for name, p := range oracleCorpus(t) {
		pts := Analyze(p)
		for _, fn := range p.FuncList {
			for _, pt := range []*PointsTo{pts, nil} {
				got, want := FlowAnalyze(fn, pt), flowAnalyzeReference(fn, pt)
				if d := flowDiff(got, want); d != "" {
					t.Fatalf("%s %s (points-to %v): %s", name, fn.Name, pt != nil, d)
				}
				deps += len(got.Deps)
			}
			funcs++
		}
	}
	t.Logf("%d functions, %d def-use edges agree with the reference", funcs, deps)
}
