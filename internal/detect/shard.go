package detect

import (
	"sort"

	"seal/internal/spec"
)

// Shard-scoped result assembly: the pieces a multi-process detection run
// needs to reproduce a single-process run's merged output byte-for-byte.
//
// The distributed merge leans on one structural fact: Bug.Key embeds the
// spec's scope (Fn + "|" + Scope + " | " + Constraint), and shards
// partition work by region group — one scope, one shard. Two bugs with
// equal keys therefore always originate on the same shard, so the
// shard-local dedup (mergeBugs over the shard's spec subset, which
// preserves global relative spec order) already IS the global first-wins
// dedup restricted to that shard. The coordinator's merge only has to
// interleave and re-sort; the ordinal-based dedup in MergeShardRecs is a
// soundness backstop, not a load-bearing step.

// ShardBug is the wire form of one merged bug a shard executor returns:
// the serializable record plus the dedup identity (Bug.Key) and the sort
// key (Spec.ID) that the in-process merge reads off live IR. Ord is the
// ordinal of the producing spec within the shard job's spec list; the
// coordinator translates it to the global spec ordinal before merging, so
// cached shard results stay valid whatever the global database layout.
type ShardBug struct {
	Key    string `json:"key"`
	SpecID string `json:"spec_id"`
	Ord    int    `json:"ord"`
	Rec    BugRec `json:"rec"`
}

// shardBugsOf flattens a merged bug list into wire form; specs is the
// list each bug's producing-spec ordinal indexes.
func shardBugsOf(bugs []*Bug, specs []*spec.Spec) []ShardBug {
	if len(bugs) == 0 {
		return nil
	}
	ord := make(map[*spec.Spec]int, len(specs))
	for i, s := range specs {
		ord[s] = i
	}
	out := make([]ShardBug, len(bugs))
	for i, b := range bugs {
		out[i] = ShardBug{Key: b.Key(), SpecID: b.Spec.ID, Ord: ord[b.Spec], Rec: Record(b)}
	}
	return out
}

// MergeShardRecs is the coordinator's deterministic merge: the wire-form
// counterpart of mergeBugs. Input is the concatenation of every shard's
// ShardBugs with Ord already translated to global spec ordinals; output is
// the record list a single-process run would have produced — first-wins
// dedup by Key in global spec order, then the (Fn, SpecID) sort the
// renderer relies on. Input order does not matter.
func MergeShardRecs(all []ShardBug) []BugRec {
	best := make(map[string]ShardBug, len(all))
	for _, sb := range all {
		if prev, ok := best[sb.Key]; !ok || sb.Ord < prev.Ord {
			best[sb.Key] = sb
		}
	}
	if len(best) == 0 {
		return nil // match a bug-free single-process run's nil Recs
	}
	merged := make([]ShardBug, 0, len(best))
	for _, sb := range best {
		merged = append(merged, sb)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Rec.Fn != merged[j].Rec.Fn {
			return merged[i].Rec.Fn < merged[j].Rec.Fn
		}
		return merged[i].SpecID < merged[j].SpecID
	})
	recs := make([]BugRec, len(merged))
	for i, sb := range merged {
		recs[i] = sb.Rec
	}
	return recs
}

// ScopeGroups partitions spec indices by detection scope in
// first-appearance order — the exported form of the region grouping every
// parallel run schedules by, so a coordinator partitions the corpus with
// exactly the units a worker will execute.
func ScopeGroups(specs []*spec.Spec) [][]int { return groupByScope(specs) }
