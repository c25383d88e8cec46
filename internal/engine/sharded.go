// Scatter-gather certainty over sharded views.
//
// Why the per-shard combination rules look the way they do: a repair
// picks one fact per block, independently across blocks, and a
// block-hash partition keeps blocks whole, so the repairs of the full
// database are exactly the products of per-shard repairs.
//
//   - A single positive atom is certain iff some block's every fact
//     matches it. Blocks live on one shard, so the query is certain iff
//     it is certain on some shard: per-shard verdicts OR-combine, and
//     only shards that can own a matching block (shard.Touched) need
//     evaluating at all.
//
//   - A query whose every atom has a ground key depends only on the
//     blocks those keys name. When they all live on one shard (same-key
//     blocks co-locate under key-only placement), that shard's verdict
//     is the global verdict: the query is pinned.
//
//   - Other multi-atom queries do NOT decompose into per-shard
//     verdicts: with R(a|b) on shard 0 and S(b|c) on shard 1, the join
//     R(x|y), S(y|z) is certain on neither shard alone yet certain on
//     the database. Those queries evaluate on the merged union view —
//     still one process-local evaluation, with the union memoized per
//     version.
//
// ShardPlan names which rule applies; see docs/SHARDING.md for the
// full argument.
package engine

import (
	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/schema"
)

// ShardView is the engine's read interface onto one consistent
// cross-shard version: per-shard databases, a merged union, and the
// global version. *shard.View implements it.
type ShardView interface {
	NumShards() int
	Shard(i int) *db.Database
	Union() *db.Database
	Version() uint64
	// Owner reports which shard holds block (rel, key) under the
	// placement that wrote this view.
	Owner(rel string, key []string) int
}

// CertainShardedVersioned answers CERTAINTY(q) on a sharded view behind
// the exact-version result cache: repeated checks of the same query
// against the same global version — including versions reached only by
// writes to relations the query does not mention — return the memoized
// answer without touching the view. cached reports whether the answer
// came from the cache. dbID must name the database stably across
// versions, and writes to it must be reported via ApplyWrite in version
// order (the sharded facade reports one aggregate change per batch, in
// global-version order).
func (e *Engine) CertainShardedVersioned(q schema.Query, dbID string, view ShardView) (certain, cached bool, err error) {
	if err := e.begin(); err != nil {
		return false, false, err
	}
	defer e.end()
	sig := q.Signature()
	if ans, ok := e.results.get(sig, dbID, view.Version()); ok {
		return ans, true, nil
	}
	p, err := e.prepare(q)
	if err != nil {
		return false, false, err
	}
	certain = e.certainSharded(p, q, view)
	rels := make(map[string]bool)
	for _, a := range q.Atoms() {
		rels[a.Rel] = true
	}
	e.results.put(sig, dbID, view.Version(), rels, certain)
	return certain, false, nil
}

// certainSharded evaluates a prepared query on a view by its
// ShardPlan: on the merged union for union plans, otherwise as the OR
// of the planned shards' own verdicts.
func (e *Engine) certainSharded(p *core.Prepared, q schema.Query, view ShardView) bool {
	plan, shards := ShardPlan(q, view.NumShards(), view.Owner)
	if plan == ShardPlanUnion {
		return e.certainWith(p, view.Union())
	}
	for _, i := range shards {
		if e.certainWith(p, view.Shard(i)) {
			return true
		}
	}
	return false
}
