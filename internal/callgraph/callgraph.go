// Package callgraph builds the program call graph. Direct calls resolve by
// name; indirect calls through function pointers resolve with a multi-layer
// type analysis analogue: the (struct type, field name) pair of the loaded
// function pointer selects exactly the functions registered for that field
// in ops tables, falling back to signature matching when the struct type is
// unknown (paper §6.4.1, §7 "Indirect calls are resolved by type analysis").
package callgraph

import (
	"sort"

	"seal/internal/cir"
	"seal/internal/ir"
)

// Graph is the call graph.
type Graph struct {
	Prog *ir.Program

	// Callees maps each call statement to its possible targets (defined
	// functions only; external APIs have no body to enter).
	Callees map[*ir.Stmt][]*ir.Func
	// CallerSites maps each defined function to the call statements that
	// may invoke it.
	CallerSites map[*ir.Func][]*ir.Stmt

	// bySig indexes ops-registered functions by signature key.
	bySig map[string][]*ir.Func
}

// Build constructs the call graph for prog.
func Build(prog *ir.Program) *Graph {
	g := &Graph{
		Prog:        prog,
		Callees:     make(map[*ir.Stmt][]*ir.Func),
		CallerSites: make(map[*ir.Func][]*ir.Stmt),
		bySig:       make(map[string][]*ir.Func),
	}
	for _, oa := range prog.OpsAssigns {
		fn, ok := prog.Funcs[oa.FuncName]
		if !ok {
			continue
		}
		key := cir.SigString(fn.Decl.Sig())
		if !containsFunc(g.bySig[key], fn) {
			g.bySig[key] = append(g.bySig[key], fn)
		}
	}
	for _, fn := range prog.FuncList {
		for _, s := range fn.Stmts() {
			if s.Kind != ir.StCall {
				continue
			}
			targets := g.resolve(fn, s)
			g.Callees[s] = targets
			for _, t := range targets {
				g.CallerSites[t] = append(g.CallerSites[t], s)
			}
		}
	}
	return g
}

func containsFunc(fns []*ir.Func, fn *ir.Func) bool {
	for _, f := range fns {
		if f == fn {
			return true
		}
	}
	return false
}

func (g *Graph) resolve(fn *ir.Func, s *ir.Stmt) []*ir.Func {
	if s.Callee != "" {
		if target, ok := g.Prog.Funcs[s.Callee]; ok {
			return []*ir.Func{target}
		}
		return nil // external API
	}
	// Indirect: field-typed function pointer.
	if fe, ok := s.CalleeExpr.(*cir.FieldExpr); ok {
		baseT := fn.TypeOf(fe.X)
		st := baseT
		if fe.Arrow {
			if baseT.IsPtr() {
				st = baseT.Elem
			} else {
				st = nil
			}
		}
		if st.IsStruct() && st.Struct != nil {
			if impls := g.Prog.ImplsOf(st.Struct.Name, fe.Name); len(impls) > 0 {
				return impls
			}
		}
	}
	// Fallback: signature-based resolution over ops-registered functions.
	t := fn.TypeOf(s.CalleeExpr)
	if t.IsFuncPtr() {
		if impls := g.bySig[cir.SigString(t.Elem.Sig)]; len(impls) > 0 {
			return sortedFuncs(impls)
		}
	}
	return nil
}

func sortedFuncs(fns []*ir.Func) []*ir.Func {
	out := append([]*ir.Func{}, fns...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CalleesOf returns the possible targets of a call statement.
func (g *Graph) CalleesOf(s *ir.Stmt) []*ir.Func { return g.Callees[s] }

// CallersOf returns the call sites that may invoke fn.
func (g *Graph) CallersOf(fn *ir.Func) []*ir.Stmt { return g.CallerSites[fn] }

// ImplsOfInterface returns the implementations of a function-pointer
// interface identified as "struct.field".
func (g *Graph) ImplsOfInterface(structName, fieldName string) []*ir.Func {
	return g.Prog.ImplsOf(structName, fieldName)
}

// ReachableWithin returns the set of functions reachable from roots within
// the given call depth (used to delineate patch-related functions for
// demand-driven PDG generation, paper §7).
func (g *Graph) ReachableWithin(roots []*ir.Func, depth int) map[*ir.Func]bool {
	seen := make(map[*ir.Func]bool)
	type item struct {
		fn *ir.Func
		d  int
	}
	var queue []item
	for _, r := range roots {
		if r != nil && !seen[r] {
			seen[r] = true
			queue = append(queue, item{r, 0})
		}
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if it.d >= depth {
			continue
		}
		// Callees.
		for _, s := range it.fn.Stmts() {
			if s.Kind != ir.StCall {
				continue
			}
			for _, t := range g.Callees[s] {
				if !seen[t] {
					seen[t] = true
					queue = append(queue, item{t, it.d + 1})
				}
			}
		}
		// Callers.
		for _, site := range g.CallerSites[it.fn] {
			caller := site.Fn
			if !seen[caller] {
				seen[caller] = true
				queue = append(queue, item{caller, it.d + 1})
			}
		}
	}
	return seen
}
