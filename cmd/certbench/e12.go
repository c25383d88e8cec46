package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/engine"
	"cqa/internal/gen"
	"cqa/internal/parse"
)

// runE12 measures the serving architecture of internal/engine: repeated
// CERTAINTY traffic answered (a) cold — Classify + Rewrite per request,
// and (b) through the LRU plan cache; plus a batch of independent checks
// run sequentially vs on the worker pool. Every mode is validated
// against mode (a) — any disagreement fails the experiment.
func runE12(quick bool) error {
	repeats := 200
	batchItems := 16
	blocks := 16
	batchBlocks := 192
	chainLens := []int{8, 10, 12, 14}
	if quick {
		repeats = 40
		batchItems = 8
		blocks = 8
		batchBlocks = 64
		chainLens = []int{6, 8}
	}
	// Chain queries make preparation expensive (the attack graph and
	// rewriting grow with the query), which is the plan cache's target:
	// query-only work repeated on every request.
	queries := make([]string, len(chainLens))
	for i, n := range chainLens {
		queries[i] = chainQuery(n).String()
	}
	rng := rand.New(rand.NewSource(12))

	// One modest database per query, so the cold runs are dominated by
	// preparation, the cached runs by evaluation.
	dbs := make(map[string]*dbWithAnswer, len(queries))
	for _, src := range queries {
		q := parse.MustQuery(src)
		d := gen.Database(rng, q, gen.DBOptions{BlocksPerRelation: blocks, MaxBlockSize: 2, DomainPerVariable: blocks / 2, ConstantBias: 0.7})
		dbs[src] = &dbWithAnswer{db: d}
	}

	// (a) cold: every request pays classification + rewriting.
	t0 := time.Now()
	for i := 0; i < repeats; i++ {
		src := queries[i%len(queries)]
		q := parse.MustQuery(src)
		ans, err := core.Certain(q, dbs[src].db, core.EngineAuto)
		if err != nil {
			return err
		}
		if i < len(queries) {
			dbs[src].want = ans
		} else if ans != dbs[src].want {
			return fmt.Errorf("cold run unstable on %s", src)
		}
	}
	tCold := time.Since(t0)

	// (b) cached: the plan cache absorbs the query-only work.
	cached := engine.New(engine.Options{})
	t0 = time.Now()
	for i := 0; i < repeats; i++ {
		src := queries[i%len(queries)]
		ans, err := cached.Certain(parse.MustQuery(src), dbs[src].db)
		if err != nil {
			return err
		}
		if ans != dbs[src].want {
			return fmt.Errorf("cached engine disagrees on %s", src)
		}
	}
	tCached := time.Since(t0)

	fmt.Printf("repeated traffic (%d requests over %d queries, %d blocks/rel):\n", repeats, len(queries), blocks)
	fmt.Printf("  cold (Classify+Rewrite per request)  %v\n", tCold)
	fmt.Printf("  plan cache                           %v   (%.1fx)\n", tCached, ratio(tCold, tCached))
	fmt.Printf("  engine stats: %s\n", cached.Stats())

	// Batch: the same independent checks, sequential loop vs worker pool,
	// on databases large enough that per-item evaluation dominates.
	q := parse.MustQuery("Lives(p | t), !Born(p | t), !Likes(p, t)")
	items := make([]engine.Item, batchItems)
	for i := range items {
		d := gen.Database(rng, q, gen.DBOptions{BlocksPerRelation: batchBlocks, MaxBlockSize: 2, DomainPerVariable: batchBlocks / 2, ConstantBias: 0.7})
		items[i] = engine.Item{Query: q, DB: d}
	}
	p, err := cached.Prepare(q)
	if err != nil {
		return err
	}
	// Warm the databases' memoized read-path state (active domains) so
	// the sequential/batch comparison measures evaluation, not cache
	// fills that only the first mode would pay.
	for _, it := range items {
		p.Certain(it.DB)
	}
	seq := make([]bool, len(items))
	t0 = time.Now()
	for i, it := range items {
		seq[i] = p.Certain(it.DB)
	}
	tSeq := time.Since(t0)
	t0 = time.Now()
	results := cached.CertainBatch(context.Background(), items)
	tBatch := time.Since(t0)
	for i, r := range results {
		if r.Err != nil {
			return fmt.Errorf("batch item %d: %w", i, r.Err)
		}
		if r.Certain != seq[i] {
			return fmt.Errorf("batch item %d disagrees with sequential run", i)
		}
	}
	fmt.Printf("batch of %d independent checks:\n", batchItems)
	fmt.Printf("  sequential loop   %v\n", tSeq)
	fmt.Printf("  CertainBatch      %v   (%.1fx)\n", tBatch, ratio(tSeq, tBatch))
	return nil
}

type dbWithAnswer struct {
	db   *db.Database
	want bool
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}
