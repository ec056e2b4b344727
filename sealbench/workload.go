package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"

	"seal/internal/kernelgen"
)

// Workload is one input set and traffic shape. Every run is a closed loop
// with one client: each round is a batch pass (infer → specdb import →
// cold detect → warm detect, each a `seal` process) followed by a burst of
// requests to a resident `seal serve -spec-db` daemon over the same tree.
// Workloads differ in corpus size, in the detect path of the pass, and in
// how heavy the burst is against the pass.
type Workload struct {
	Name string
	// Instances is the kernelgen subsystem-instance count per bug family.
	Instances int
	// StoreDetect runs the pass's detects over the imported spec store
	// (-spec-db, region-group granularity) instead of the flat file.
	StoreDetect bool
	// Burst is the op composition of one round's serve burst.
	Burst map[OpKind]int
}

// OpKind is a serve-burst operation.
type OpKind string

// The burst operations. Every one ends with a fresh report from POST
// /detect, which must equal the reference report.
const (
	// OpSpecEdit upserts one existing spec with a new origin patch (same
	// key, so the report is unchanged), then detects.
	OpSpecEdit OpKind = "spec-edit"
	// OpRead queries the spec store (GET /specs?q=) and detects on the
	// unchanged epoch.
	OpRead OpKind = "read"
	// OpFileEdit appends a comment to one source file (POST /edit), then
	// detects.
	OpFileEdit OpKind = "file-edit"
)

var opKinds = []OpKind{OpSpecEdit, OpRead, OpFileEdit}

var workloads = []*Workload{
	{Name: "eval-batch", Instances: 3, StoreDetect: false,
		Burst: map[OpKind]int{OpSpecEdit: 6, OpRead: 3, OpFileEdit: 1}},
	{Name: "k30-batch", Instances: 30, StoreDetect: true,
		Burst: map[OpKind]int{OpSpecEdit: 6, OpRead: 3, OpFileEdit: 1}},
	{Name: "serve-churn", Instances: 3, StoreDetect: true,
		Burst: map[OpKind]int{OpSpecEdit: 60, OpRead: 30, OpFileEdit: 10}},
}

func workloadByName(name string) (*Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Corpus generates the workload's kernelgen corpus for seed: the eval
// configuration with the workload's instance count.
func (w *Workload) Corpus(seed int64) *kernelgen.Corpus {
	cfg := kernelgen.EvalConfig()
	cfg.Seed = seed
	cfg.Instances = w.Instances
	return kernelgen.Generate(cfg)
}

// CorpusDigest fingerprints everything the program is given: tree
// sources and patch pre/post sources, in a fixed order.
func CorpusDigest(c *kernelgen.Corpus) string {
	h := sha256.New()
	for _, name := range c.SortedFileNames() {
		fmt.Fprintf(h, "tree %s %d\n%s", name, len(c.Files[name]), c.Files[name])
	}
	for _, p := range c.Patches {
		for _, side := range []string{"pre", "post"} {
			files := p.Pre
			if side == "post" {
				files = p.Post
			}
			names := make([]string, 0, len(files))
			for n := range files {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Fprintf(h, "patch %s %s %s %d\n%s", p.ID, side, n, len(files[n]), files[n])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Op is one planned burst operation. Target indexes the spec (spec-edit)
// or the sorted tree file (file-edit); for reads it selects the query.
type Op struct {
	Kind   OpKind
	Target int
}

// Plan lays out the op sequence of the first rounds: each round's burst
// composition shuffled with a seeded generator. nSpecs and nFiles bound
// the targets. The sequence depends only on the seed and the sizes.
func (w *Workload) Plan(seed int64, rounds, nSpecs, nFiles int) [][]Op {
	rng := rand.New(rand.NewSource(seed))
	plan := make([][]Op, rounds)
	for r := range plan {
		var burst []Op
		for _, k := range opKinds {
			for i := 0; i < w.Burst[k]; i++ {
				op := Op{Kind: k}
				switch k {
				case OpSpecEdit:
					op.Target = rng.Intn(nSpecs)
				case OpFileEdit:
					op.Target = rng.Intn(nFiles)
				case OpRead:
					op.Target = rng.Intn(len(readQueries))
				}
				burst = append(burst, op)
			}
		}
		rng.Shuffle(len(burst), func(i, j int) { burst[i], burst[j] = burst[j], burst[i] })
		plan[r] = burst
	}
	return plan
}

// PlanDigest fingerprints an op sequence.
func PlanDigest(plan [][]Op) string {
	h := sha256.New()
	for r, burst := range plan {
		for _, op := range burst {
			fmt.Fprintf(h, "%d %s %d\n", r, op.Kind, op.Target)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// readQueries are the quantifier shapes a read op queries the spec store
// for; together they match every spec.
var readQueries = []bool{true, false}

// readQuery is the specdb query language form of a read op's query.
func readQuery(forbidden bool) string { return fmt.Sprintf("forbidden=%t", forbidden) }

// maxRounds bounds the planned rounds; a run stops at its deadline long
// before it runs out.
const maxRounds = 512
