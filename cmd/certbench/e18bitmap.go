// E18: the bitmap-vectorized evaluator and the shared-pass batch.
//
// Part one re-times the E15 instances on the compiled-bitmap engine
// (word-parallel quantifier sweeps over IDSet membership words) and
// fails if it is slower than the scalar compiled evaluator
// (fo.CompileScalar, E15's "compiled" rows) on the largest instance —
// the bitmap regression gate of `make bench-smoke`.
//
// Part two measures engine.CertainBatch on a duplicate-heavy 64-item
// batch (4 distinct queries × 16 copies, one snapshot) with and without
// shared-pass grouping, and fails if grouping does not win.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cqa/internal/engine"
	"cqa/internal/fo"
	"cqa/internal/gen"
	"cqa/internal/parse"
	"cqa/internal/rewrite"
)

// batchBenchQueries are the distinct queries of the E18 batch workload;
// they share the first bench query's relations so one generated
// instance serves all of them.
var batchBenchQueries = []string{
	"Lives(p | t), !Born(p | t), !Likes(p, t)",
	"Lives(p | t), !Born(p | t)",
	"Born(p | t), !Likes(p, t)",
	"Lives(p | t), !Likes(t, p)",
}

const batchBenchDup = 16 // copies of each distinct query in the batch

func runBenchBitmap(entries *[]benchEntry, quick bool, compiledNs map[string]int64) error {
	sizes := benchSizes(quick)
	largestSize := sizes[len(sizes)-1]
	for _, src := range benchQueries {
		q := parse.MustQuery(src)
		f, err := rewrite.Rewrite(q)
		if err != nil {
			return fmt.Errorf("bench-out: %s has no rewriting: %v", src, err)
		}
		prog, err := fo.Compile(f)
		if err != nil {
			return fmt.Errorf("bench-out: compile %s: %v", src, err)
		}
		if !prog.HasBitmap() {
			return fmt.Errorf("bench-out: %s compiled without a bitmap lowering", src)
		}
		for _, blocks := range sizes {
			// Same seed as E15: identical instances, so the compiled
			// baselines recorded there are directly comparable.
			rng := rand.New(rand.NewSource(int64(blocks)))
			opt := gen.DBOptions{BlocksPerRelation: blocks, MaxBlockSize: 2,
				DomainPerVariable: blocks, ConstantBias: 0.7}
			d := gen.Database(rng, q, opt)
			declareAll(d, q)
			want := fo.Eval(d, f)
			bound := prog.Bind(d.Interned())
			if bound.Eval() != want {
				return fmt.Errorf("bench-out: bitmap evaluator disagrees with tree walker on %s blocks=%d", src, blocks)
			}
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bound.Eval()
				}
			})
			e := benchEntry{
				Experiment:  "E18",
				Query:       src,
				Blocks:      blocks,
				Facts:       d.Size(),
				Engine:      "compiled-bitmap",
				NsPerOp:     res.NsPerOp(),
				AllocsPerOp: res.AllocsPerOp(),
				BytesPerOp:  res.AllocedBytesPerOp(),
			}
			*entries = append(*entries, e)
			fmt.Printf("  %-45s blocks=%-5d %-17s %10d ns/op %6d allocs/op\n",
				src, blocks, e.Engine, e.NsPerOp, e.AllocsPerOp)
			if blocks == largestSize {
				base, ok := compiledNs[benchKey(src, blocks)]
				if !ok {
					return fmt.Errorf("bench-out: no compiled baseline recorded for %s blocks=%d", src, blocks)
				}
				if e.NsPerOp > base {
					return fmt.Errorf("bench-out: compiled-bitmap (%d ns/op) slower than compiled (%d ns/op) on %s blocks=%d",
						e.NsPerOp, base, src, blocks)
				}
				fmt.Printf("  largest instance: compiled-bitmap %d ns/op vs compiled %d ns/op (%.1fx)\n",
					e.NsPerOp, base, float64(base)/float64(max64(e.NsPerOp, 1)))
			}
		}
	}
	return runBenchBatchShared(entries, largestSize)
}

// runBenchBatchShared times the duplicate-heavy batch on two engines
// that differ only in Options.DisableBatchSharing.
func runBenchBatchShared(entries *[]benchEntry, blocks int) error {
	rng := rand.New(rand.NewSource(int64(blocks)))
	opt := gen.DBOptions{BlocksPerRelation: blocks, MaxBlockSize: 2,
		DomainPerVariable: blocks, ConstantBias: 0.7}
	base := parse.MustQuery(batchBenchQueries[0])
	d := gen.Database(rng, base, opt)
	for _, src := range batchBenchQueries {
		declareAll(d, parse.MustQuery(src))
	}
	items := make([]engine.Item, len(batchBenchQueries)*batchBenchDup)
	for i := range items {
		items[i] = engine.Item{Query: parse.MustQuery(batchBenchQueries[i%len(batchBenchQueries)]), DB: d}
	}
	ctx := context.Background()
	label := fmt.Sprintf("batch(%dq x %d)", len(batchBenchQueries), batchBenchDup)

	shared := engine.New(engine.Options{Workers: 4})
	defer shared.Close()
	perItem := engine.New(engine.Options{Workers: 4, DisableBatchSharing: true})
	defer perItem.Close()
	sRes := shared.CertainBatch(ctx, items)
	pRes := perItem.CertainBatch(ctx, items)
	for i := range items {
		if sRes[i].Err != nil || pRes[i].Err != nil || sRes[i].Certain != pRes[i].Certain {
			return fmt.Errorf("bench-out: shared batch disagrees with per-item at item %d: %+v vs %+v",
				i, sRes[i], pRes[i])
		}
	}

	type pair struct{ shared, perItem int64 }
	var last pair
	runs := []struct {
		engine string
		eng    *engine.Engine
	}{
		{"batch-shared", shared},
		{"batch-per-item", perItem},
	}
	for _, r := range runs {
		eng := r.eng
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng.CertainBatch(ctx, items)
			}
		})
		e := benchEntry{
			Experiment:  "E18",
			Query:       label,
			Blocks:      blocks,
			Facts:       d.Size(),
			Engine:      r.engine,
			NsPerOp:     res.NsPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		*entries = append(*entries, e)
		fmt.Printf("  %-45s blocks=%-5d %-17s %10d ns/op %6d allocs/op\n",
			label, blocks, r.engine, e.NsPerOp, e.AllocsPerOp)
		switch r.engine {
		case "batch-shared":
			last.shared = e.NsPerOp
		case "batch-per-item":
			last.perItem = e.NsPerOp
		}
	}
	if last.shared >= last.perItem {
		return fmt.Errorf("bench-out: shared-pass batch (%d ns/op) not faster than per-item loop (%d ns/op) at batch %d",
			last.shared, last.perItem, len(items))
	}
	fmt.Printf("  batch %d: shared %d ns/op vs per-item %d ns/op (%.1fx)\n",
		len(items), last.shared, last.perItem, float64(last.perItem)/float64(max64(last.shared, 1)))
	return nil
}
