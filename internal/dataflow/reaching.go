package dataflow

import (
	"seal/internal/cir"
	"seal/internal/ir"
)

// DataDep is one intra-procedural data-dependence edge: the value defined
// at Def reaches the read of Loc at Use.
type DataDep struct {
	Def *ir.Stmt
	Use *ir.Stmt
	Loc ir.Loc // the location read at Use
}

// FuncFlow is the flow-sensitive def-use solution of one function.
type FuncFlow struct {
	Fn   *ir.Func
	Deps []DataDep

	// UseDefs indexes Deps by use statement.
	UseDefs map[*ir.Stmt][]DataDep
	// DefUses indexes Deps by defining statement.
	DefUses map[*ir.Stmt][]DataDep
	// Unrooted lists (use stmt, loc) pairs whose read has no reaching
	// definition inside the function: reads of parameters' pointees,
	// globals, or uninitialized locals. These are the slicing sources /
	// uninitialized-value evidence.
	Unrooted []DataDep // Def == nil
}

type flowDef struct {
	stmt   *ir.Stmt
	loc    ir.Loc
	strong bool
	effect bool // call-effect write (weak fallback, see DefLoc)
}

// depKey identifies a def-use edge for de-duplication: defining
// statement, using statement and the Key of the loc read.
type depKey struct {
	def, use *ir.Stmt
	loc      string
}

// isStrong reports whether a write to loc can kill previous writes: the
// path must be concrete (no deref, no unknown offset).
func isStrong(l ir.Loc) bool {
	for _, st := range l.Path {
		if st.Kind == ir.StepDeref || (st.Kind == ir.StepOff && st.Off == ir.AnyOff) {
			return false
		}
	}
	return true
}

// pointeeLoc derives the access path of the memory a pointer-valued
// argument exposes to a callee: &x.f -> x.f[*], p -> p*[*], p->f -> p->f*[*].
func pointeeLoc(fn *ir.Func, arg cir.Expr) (ir.Loc, bool) {
	switch x := arg.(type) {
	case *cir.UnaryExpr:
		if x.Op == cir.TokAmp {
			if lv, _, ok := fn.LvalLoc(x.X); ok {
				lv.Path = append(append([]ir.Step{}, lv.Path...), ir.Step{Kind: ir.StepOff, Off: ir.AnyOff})
				return normalizeLoc(lv), true
			}
		}
		return ir.Loc{}, false
	case *cir.CastExpr:
		return pointeeLoc(fn, x.X)
	default:
		if lv, _, ok := fn.LvalLoc(arg); ok {
			if fn.TypeOf(arg).IsPtr() {
				lv.Path = append(append([]ir.Step{}, lv.Path...),
					ir.Step{Kind: ir.StepDeref}, ir.Step{Kind: ir.StepOff, Off: ir.AnyOff})
				return normalizeLoc(lv), true
			}
		}
	}
	return ir.Loc{}, false
}

func normalizeLoc(l ir.Loc) ir.Loc {
	var out []ir.Step
	for _, s := range l.Path {
		if s.Kind == ir.StepOff && len(out) > 0 && out[len(out)-1].Kind == ir.StepOff {
			last := &out[len(out)-1]
			if last.Off == ir.AnyOff || s.Off == ir.AnyOff {
				last.Off = ir.AnyOff
			} else {
				last.Off += s.Off
			}
			continue
		}
		out = append(out, s)
	}
	l.Path = out
	return l
}

// DefLoc is a may-written location; Effect marks call-effect writes
// through pointer arguments, which act as weak fallback definitions: they
// only feed def-use edges for reads no regular definition reaches. This
// keeps API side effects from splicing themselves into value-flow paths
// between a datum and its uses ("we cannot assume one API could manipulate
// arbitrary memory", paper §5 step 2) while still rooting
// initialized-by-callee reads.
type DefLoc struct {
	Loc    ir.Loc
	Effect bool
}

// EffectiveDefsFlagged returns the locations a statement may write,
// including the call-effect writes through pointer arguments ("assume APIs
// could read/write passing pointer parameters and accessible fields",
// paper §7) and parameter pointee initialization at parameter-definition
// nodes.
func EffectiveDefsFlagged(fn *ir.Func, s *ir.Stmt) []DefLoc {
	var out []DefLoc
	for _, l := range s.Defs {
		out = append(out, DefLoc{Loc: l})
	}
	switch {
	case s.IsParamDef():
		v := s.ParamVar()
		if v != nil && v.Type.IsPtr() {
			out = append(out, DefLoc{Loc: ir.Loc{Base: v, Path: []ir.Step{{Kind: ir.StepDeref}, {Kind: ir.StepOff, Off: ir.AnyOff}}}})
		}
	case s.Kind == ir.StCall:
		for _, a := range s.Args {
			if pl, ok := pointeeLoc(fn, a); ok {
				out = append(out, DefLoc{Loc: pl, Effect: true})
			}
		}
	}
	return out
}

// EffectiveDefs returns just the locations of EffectiveDefsFlagged.
func EffectiveDefs(fn *ir.Func, s *ir.Stmt) []ir.Loc {
	flagged := EffectiveDefsFlagged(fn, s)
	out := make([]ir.Loc, len(flagged))
	for i, d := range flagged {
		out[i] = d.Loc
	}
	return out
}

// EffectiveUses returns the locations a statement may read, including
// callee reads through pointer arguments.
func EffectiveUses(fn *ir.Func, s *ir.Stmt) []ir.Loc {
	out := append([]ir.Loc{}, s.Uses...)
	if s.Kind == ir.StCall {
		for _, a := range s.Args {
			if pl, ok := pointeeLoc(fn, a); ok {
				out = append(out, pl)
			}
		}
	}
	return out
}

// FlowAnalyze computes reaching definitions and def-use chains for fn.
func FlowAnalyze(fn *ir.Func, pts *PointsTo) *FuncFlow {
	ff := &FuncFlow{
		Fn:      fn,
		UseDefs: make(map[*ir.Stmt][]DataDep),
		DefUses: make(map[*ir.Stmt][]DataDep),
	}

	// Enumerate all defs.
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

	// defCells[j] holds the cells of defs[j].loc once some use needed
	// them: each def's access path is resolved at most once per call.
	defCells := make([]CellSet, n)

	// Per-block GEN/KILL over def bitsets.
	type bits []bool
	newBits := func() bits { return make(bits, n) }
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
		// Kill: strong defs of the same concrete loc.
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
		in[b] = newBits()
		out[b] = newBits()
	}
	// Worklist iteration.
	work := append([]*ir.Block{}, fn.Blocks...)
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		ib := newBits()
		for _, p := range b.Preds {
			union(ib, out[p])
		}
		in[b] = ib
		ob := append(bits{}, ib...)
		for _, s := range b.Stmts {
			apply(ob, s)
		}
		if union(out[b], ob) {
			for _, sc := range b.Succs {
				work = append(work, sc)
			}
		}
	}

	// Def-use chains: replay each block.
	seenDep := make(map[depKey]bool)
	var regular, effects []int // per-use buffers, reused across uses
	for _, b := range fn.Blocks {
		cur := append(bits{}, in[b]...)
		for _, s := range b.Stmts {
			for _, u := range EffectiveUses(fn, s) {
				// Gather reaching defs, preferring regular definitions;
				// call-effect writes are weak fallbacks only.
				regular, effects = regular[:0], effects[:0]
				uStrong := isStrong(u)
				var uCells CellSet // resolved on first need, once per use
				for j := range defs {
					d := &defs[j]
					if !cur[j] || d.stmt == s {
						continue
					}
					var may bool
					switch {
					case d.loc.Base == u.Base && d.loc.SameShape(u):
						may = true
					case d.strong && uStrong && d.loc.Base != u.Base:
						// Distinct address-untaken direct locals cannot alias.
						may = false
					case pts == nil:
						may = d.loc.Base == u.Base
					default:
						if defCells[j] == nil {
							defCells[j] = pts.cellsOfLoc(fn, d.loc)
						}
						if uCells == nil {
							uCells = pts.cellsOfLoc(fn, u)
						}
						may = cellsOverlap(defCells[j], uCells)
					}
					if may {
						if d.effect {
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
				uKey := ""
				if len(chosen) > 0 {
					uKey = u.Key()
				}
				for _, j := range chosen {
					key := depKey{defs[j].stmt, s, uKey}
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
