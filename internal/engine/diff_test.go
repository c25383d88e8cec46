package engine

import (
	"context"
	"math/rand"
	"testing"

	"cqa/internal/core"
	"cqa/internal/gen"
	"cqa/internal/naive"
)

// TestDifferentialEngineVsNaive is the property-based oracle check for
// the engine paths: for ≥ 500 random sjfBCQ¬ queries with acyclic attack
// graphs (CERTAINTY in FO) and small random databases, the cached
// rewriting evaluation, the ForceTreeWalk rollback, and the batch API
// must all agree with brute-force repair enumeration. This extends
// the exhaustive_test.go style of internal/rewrite to the engine layer:
// the same oracle, but through the plan cache and the concurrent paths.
func TestDifferentialEngineVsNaive(t *testing.T) {
	const cases = 500

	rng := rand.New(rand.NewSource(20180610))
	qOpts := gen.DefaultQueryOptions()
	// Small enough for the naive all-repairs oracle: ≤ 2 facts per block,
	// ≤ 2 blocks per relation, ≤ 5 relations → ≤ 2^10 repairs.
	dbOpts := gen.DBOptions{BlocksPerRelation: 2, MaxBlockSize: 2, DomainPerVariable: 3, ConstantBias: 0.7}

	seq := New(Options{CacheSize: 64})
	walk := New(Options{CacheSize: 64, ForceTreeWalk: true})

	done := 0
	var batch []Item
	var batchWant []bool
	for done < cases {
		q := gen.Query(rng, qOpts)
		cls, err := core.Classify(q)
		if err != nil {
			t.Fatalf("classify %s: %v", q, err)
		}
		if cls.Verdict != core.VerdictFO {
			continue // only acyclic attack graphs: the rewriting must exist
		}
		done++
		d := gen.Database(rng, q, dbOpts)
		want := naive.IsCertain(q, d)

		// Cached sequential path — twice, so the second call exercises a
		// cache hit (alpha-variants of earlier queries hit too).
		for pass := 0; pass < 2; pass++ {
			got, err := seq.Certain(q, d)
			if err != nil {
				t.Fatalf("engine %s: %v", q, err)
			}
			if got != want {
				t.Fatalf("case %d: engine = %v, naive oracle = %v\nquery: %s\ndb:\n%s", done, got, want, q, d)
			}
		}

		// Tree-walk rollback.
		got, err := walk.Certain(q, d)
		if err != nil {
			t.Fatalf("tree-walk engine %s: %v", q, err)
		}
		if got != want {
			t.Fatalf("case %d: tree-walk engine = %v, naive oracle = %v\nquery: %s\ndb:\n%s", done, got, want, q, d)
		}

		batch = append(batch, Item{Query: q, DB: d})
		batchWant = append(batchWant, want)

		// Flush accumulated checks through the batch API periodically so
		// the worker pool sees mixed workloads.
		if len(batch) == 50 || done == cases {
			results := seq.CertainBatch(context.Background(), batch)
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("batch item %d (%s): %v", i, batch[i].Query, r.Err)
				}
				if r.Certain != batchWant[i] {
					t.Fatalf("batch item %d: engine = %v, naive oracle = %v\nquery: %s", i, r.Certain, batchWant[i], batch[i].Query)
				}
			}
			batch, batchWant = batch[:0], batchWant[:0]
		}
	}

	if st := seq.Stats(); st.CacheHits == 0 {
		t.Fatalf("differential sweep never hit the cache: %+v", st)
	}
}
