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
//   - Multi-atom queries do NOT decompose into per-shard verdicts: with
//     R(a|b) on shard 0 and S(b|c) on shard 1, the join R(x|y), S(y|z)
//     is certain on neither shard alone yet certain on the database.
//     Those queries evaluate on the merged union view — still one
//     process-local evaluation, with the union memoized per version.
//
// See docs/SHARDING.md for the full argument.
package engine

import (
	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/schema"
	"cqa/internal/shard"
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

// certainSharded picks the evaluation strategy for a prepared query on
// a view.
func (e *Engine) certainSharded(p *core.Prepared, q schema.Query, view ShardView) bool {
	n := view.NumShards()
	if n == 1 {
		return e.certainWith(p, view.Shard(0))
	}
	if len(q.Lits) == 1 && !q.Lits[0].Neg {
		shards, _ := shard.TouchedOwned(q, n, view.Owner)
		for _, i := range shards {
			if e.certainWith(p, view.Shard(i)) {
				return true
			}
		}
		return false
	}
	// A multi-atom query confined to one shard's blocks (every key
	// ground, all owners equal) needs only that shard; anything else
	// joins across shards and evaluates on the union.
	if shards, all := shard.TouchedOwned(q, n, view.Owner); !all && len(shards) == 1 {
		return e.certainWith(p, view.Shard(shards[0]))
	}
	return e.certainWith(p, view.Union())
}
