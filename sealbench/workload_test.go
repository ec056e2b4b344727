package main

import "testing"

func TestSameSeedSameInputsOtherSeedOtherInputs(t *testing.T) {
	for _, w := range workloads {
		if w.Instances > 3 {
			continue // the large corpus only scales the same generator
		}
		a, b, c := w.Corpus(42), w.Corpus(42), w.Corpus(43)
		if CorpusDigest(a) != CorpusDigest(b) {
			t.Errorf("%s: seed 42 gave two different corpora", w.Name)
		}
		if CorpusDigest(a) == CorpusDigest(c) {
			t.Errorf("%s: seeds 42 and 43 gave the same corpus", w.Name)
		}
		p1 := PlanDigest(w.Plan(42, 50, 113, 201))
		p2 := PlanDigest(w.Plan(42, 50, 113, 201))
		p3 := PlanDigest(w.Plan(43, 50, 113, 201))
		if p1 != p2 {
			t.Errorf("%s: seed 42 gave two different op sequences", w.Name)
		}
		if p1 == p3 {
			t.Errorf("%s: seeds 42 and 43 gave the same op sequence", w.Name)
		}
	}
}

func TestPlanKeepsEachRoundsComposition(t *testing.T) {
	for _, w := range workloads {
		for r, burst := range w.Plan(7, 20, 100, 50) {
			got := make(map[OpKind]int)
			for _, op := range burst {
				got[op.Kind]++
				if op.Target < 0 || (op.Kind == OpSpecEdit && op.Target >= 100) || (op.Kind == OpFileEdit && op.Target >= 50) ||
					(op.Kind == OpRead && op.Target >= len(readQueries)) {
					t.Fatalf("%s round %d: target out of range: %+v", w.Name, r, op)
				}
			}
			for _, k := range opKinds {
				if got[k] != w.Burst[k] {
					t.Errorf("%s round %d: %d %s ops, want %d", w.Name, r, got[k], k, w.Burst[k])
				}
			}
		}
	}
}
