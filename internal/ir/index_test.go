package ir_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"seal/internal/cir"
	"seal/internal/ir"
	"seal/internal/kernelgen"
)

// scanInterfacesOf is the linear scan over OpsAssigns that the ops index
// replaced: the oracle for InterfacesOf.
func scanInterfacesOf(p *ir.Program, fn *ir.Func) []string {
	var out []string
	seen := map[string]bool{}
	for _, oa := range p.OpsAssigns {
		if oa.FuncName == fn.Name {
			key := oa.InterfaceName()
			if !seen[key] {
				seen[key] = true
				out = append(out, key)
			}
		}
	}
	sort.Strings(out)
	return out
}

// scanImplsOf is the linear-scan oracle for ImplsOf.
func scanImplsOf(p *ir.Program, structName, fieldName string) []*ir.Func {
	var out []*ir.Func
	seen := map[string]bool{}
	for _, oa := range p.OpsAssigns {
		if oa.StructName == structName && oa.FieldName == fieldName && !seen[oa.FuncName] {
			seen[oa.FuncName] = true
			if fn, ok := p.Funcs[oa.FuncName]; ok {
				out = append(out, fn)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// checkIndexMatchesScan compares both lookups with their scans for every
// defined function and every registered interface, plus one unknown
// interface, and returns the number of registrations checked.
func checkIndexMatchesScan(t *testing.T, p *ir.Program) int {
	t.Helper()
	for _, fn := range p.FuncList {
		if got, want := p.InterfacesOf(fn), scanInterfacesOf(p, fn); !reflect.DeepEqual(got, want) {
			t.Errorf("InterfacesOf(%s) = %v, scan %v", fn.Name, got, want)
		}
	}
	ifaces := [][2]string{{"no_such_ops", "probe"}}
	for _, oa := range p.OpsAssigns {
		ifaces = append(ifaces, [2]string{oa.StructName, oa.FieldName})
	}
	for _, in := range ifaces {
		if got, want := p.ImplsOf(in[0], in[1]), scanImplsOf(p, in[0], in[1]); !reflect.DeepEqual(got, want) {
			t.Errorf("ImplsOf(%s.%s) = %v, scan %v", in[0], in[1], got, want)
		}
	}
	return len(p.OpsAssigns)
}

func program(t *testing.T, files map[string]string) *ir.Program {
	t.Helper()
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
	return p
}

// TestInterfaceIndexMatchesScan: on the eval corpus (kernelgen
// Instances=3) the ops index answers exactly what the scan answers.
func TestInterfaceIndexMatchesScan(t *testing.T) {
	cfg := kernelgen.EvalConfig()
	cfg.Instances = 3
	p := program(t, kernelgen.Generate(cfg).Files)
	n := checkIndexMatchesScan(t, p)
	if n == 0 {
		t.Fatal("corpus has no ops-table registrations")
	}
	t.Logf("%d functions, %d ops-table registrations", len(p.FuncList), n)
}

const opsHeader = `
struct dev_ops { int (*open)(int x); int (*close)(int x); };
struct bus_ops { int (*probe)(int x); };
`

// TestInterfaceIndexCases covers the registrations the index has to fold:
// one function in several ops tables, the same function registered twice
// under one interface, a struct redefined across files, and a function
// registered before (or without) its definition.
func TestInterfaceIndexCases(t *testing.T) {
	p := program(t, map[string]string{
		"a.c": opsHeader + `
int shared_op(int x) { return x; }
int twice(int x) { return x + 1; }
struct dev_ops a_ops = { .open = shared_op, .close = twice };
struct bus_ops a_bus = { .probe = shared_op };
struct dev_ops a_ops2 = { .close = twice };
struct dev_ops late_ops = { .open = later, .close = extern_only };
`,
		"b.c": opsHeader + `
int b_open(int x) { return x; }
int later(int x) { return x - 1; }
struct dev_ops b_ops = { .open = b_open, .close = twice };
`,
	})
	checkIndexMatchesScan(t, p)
	for _, c := range []struct {
		fn   string
		want []string
	}{
		{"shared_op", []string{"bus_ops.probe", "dev_ops.open"}},
		{"twice", []string{"dev_ops.close"}},
		{"b_open", []string{"dev_ops.open"}},
		{"later", []string{"dev_ops.open"}},
	} {
		if got := p.InterfacesOf(p.Funcs[c.fn]); !reflect.DeepEqual(got, c.want) {
			t.Errorf("InterfacesOf(%s) = %v, want %v", c.fn, got, c.want)
		}
	}
	names := func(fns []*ir.Func) string {
		var s []string
		for _, fn := range fns {
			s = append(s, fn.Name)
		}
		return fmt.Sprint(s)
	}
	if got := names(p.ImplsOf("dev_ops", "open")); got != "[b_open later shared_op]" {
		t.Errorf("ImplsOf(dev_ops.open) = %s", got)
	}
	// extern_only is registered but never defined: not an implementation.
	if got := names(p.ImplsOf("dev_ops", "close")); got != "[twice]" {
		t.Errorf("ImplsOf(dev_ops.close) = %s", got)
	}
}

// TestInterfaceIndexSliceContract pins the InterfacesOf slice contract:
// the result is the index's own entry and is read-only. Its capacity is
// clipped to its length, so a caller that appends gets a fresh array and
// never writes into the index or into another caller's append. That no
// pipeline caller writes an element is checked by the root package's
// TestInterfaceIndexUnmodifiedByCallers.
func TestInterfaceIndexSliceContract(t *testing.T) {
	p := program(t, map[string]string{"a.c": opsHeader + `
int f(int x) { return x; }
struct dev_ops o = { .open = f, .close = f };
struct bus_ops b = { .probe = f };
`})
	got := p.InterfacesOf(p.Funcs["f"])
	if want := []string{"bus_ops.probe", "dev_ops.close", "dev_ops.open"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("InterfacesOf(f) = %v, want %v", got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("InterfacesOf capacity %d exceeds length %d: an append would write into the index", cap(got), len(got))
	}
}
