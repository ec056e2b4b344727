package seal

// Deterministic allocation gates for the value-flow and interface-lookup
// hot path that every detection pays on a fresh substrate: points-to
// queries, reaching definitions and ops-table lookups inside PDG builds.
// Allocation counts do not depend on the host's speed, so they gate the
// work itself; the wall-clock floors elsewhere stay as they are.

import (
	"context"
	"reflect"
	"testing"

	"seal/internal/baselines/crix"
	"seal/internal/dataflow"
)

// Allocation ceilings: the figures measured on the eval corpus (Go 1.24,
// linux/amd64) plus 3%. A change that allocates more per FlowAnalyze
// sweep or per cold grouped detection fails TestDetectHotPathAllocs.
const (
	flowSweepAllocsCeiling     = 35786 * 103 / 100
	groupedDetectAllocsCeiling = 200337 * 103 / 100
)

// TestDetectHotPathAllocs measures allocations per run of two workloads
// over the eval corpus and holds each to its ceiling: FlowAnalyze over
// every function on one frozen points-to solution, and one Workers=1
// grouped detection on a fresh resident substrate (points-to, PDG builds,
// path enumeration, solving) with no cache.
func TestDetectHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	files, specs := benchDetectCorpus(t)
	target, err := LoadFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	prog := target.Prog
	pts := dataflow.Analyze(prog)
	flow := testing.AllocsPerRun(3, func() {
		for _, fn := range prog.FuncList {
			dataflow.FlowAnalyze(fn, pts)
		}
	})
	ctx := context.Background()
	detect := testing.AllocsPerRun(1, func() {
		res, gs, err := NewResident(target).DetectGrouped(ctx, specs, DetectRunOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if gs.Computed != gs.Groups || len(res.Recs) == 0 {
			t.Fatalf("detection computed %d of %d groups, %d reports", gs.Computed, gs.Groups, len(res.Recs))
		}
	})
	t.Logf("FlowAnalyze sweep over %d functions: %.0f allocs (ceiling %d)", len(prog.FuncList), flow, flowSweepAllocsCeiling)
	t.Logf("grouped detect, Workers=1, %d specs: %.0f allocs (ceiling %d)", len(specs), detect, groupedDetectAllocsCeiling)
	if flow > flowSweepAllocsCeiling {
		t.Errorf("FlowAnalyze sweep allocates %.0f, ceiling %d", flow, flowSweepAllocsCeiling)
	}
	if detect > groupedDetectAllocsCeiling {
		t.Errorf("grouped detect allocates %.0f, ceiling %d", detect, groupedDetectAllocsCeiling)
	}
}

// TestInterfaceIndexUnmodifiedByCallers backs the read-only contract of
// ir.Program.InterfacesOf: after a grouped detection with the persistent
// cache (PDG builds, slicing, endpoint classification, abstraction,
// canonical region shapes) and the CRIX baseline have run over the eval
// corpus, every function's interface list is what it was before.
func TestInterfaceIndexUnmodifiedByCallers(t *testing.T) {
	files, specs := benchDetectCorpus(t)
	target, err := LoadFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	prog := target.Prog
	snapshot := func() map[string][]string {
		out := make(map[string][]string)
		for _, fn := range prog.FuncList {
			if ifaces := prog.InterfacesOf(fn); len(ifaces) > 0 {
				out[fn.Name] = append([]string(nil), ifaces...)
			}
		}
		return out
	}
	before := snapshot()
	if len(before) == 0 {
		t.Fatal("corpus has no interface implementations")
	}
	if _, _, err := NewResident(target).DetectGrouped(context.Background(), specs,
		DetectRunOptions{Workers: 2, CacheDir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	crix.Detect(prog)
	if after := snapshot(); !reflect.DeepEqual(after, before) {
		t.Fatalf("a caller modified an InterfacesOf result: %d implementations before, %d after", len(before), len(after))
	}
}
