// BENCH_eval.json emission: the -bench-out flag runs the compiled-vs-
// interpreted evaluation comparison on the E-series rewriting workload
// and writes one JSON record per (query, size, engine) so the repo's
// bench trajectory is diffable across PRs. The record set (queries,
// sizes, engines, field order) is deterministic; the timings are
// whatever the host measures. The run fails — non-zero exit — if the
// compiled evaluator is slower than the tree walker on the largest
// instance, which is the `make bench-smoke` regression gate.
package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"cqa/internal/db"
	"cqa/internal/fo"
	"cqa/internal/gen"
	"cqa/internal/naive"
	"cqa/internal/parse"
	"cqa/internal/planner"
	"cqa/internal/rewrite"
	"cqa/internal/schema"
)

type benchEntry struct {
	Experiment  string `json:"experiment"`
	Query       string `json:"query"`
	Blocks      int    `json:"blocks"`
	Facts       int    `json:"facts"`
	Engine      string `json:"engine"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	// Reevals counts registration re-evaluations across the E17 delta
	// workload (zero and omitted for the per-op experiments).
	Reevals int64 `json:"reevals,omitempty"`
}

// benchQueries are the E-series rewriting workloads measured by
// -bench-out: the E7 scaling query and a guarded negation pair.
var benchQueries = []string{
	"Lives(p | t), !Born(p | t), !Likes(p, t)",
	"R0(x0 | x1), R1(x1 | x2), R2(x2 | x3), !N(x0 | x1)",
}

func benchSizes(quick bool) []int {
	if quick {
		return []int{4, 16, 64}
	}
	return []int{64, 256, 1024}
}

// benchMeta stamps a BENCH_eval.json run with the toolchain and host
// shape the numbers were measured under.
type benchMeta struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// benchDocOut is the BENCH_eval.json document: run metadata plus the
// per-(experiment, query, size, engine) entries.
type benchDocOut struct {
	Meta    benchMeta    `json:"meta"`
	Entries []benchEntry `json:"entries"`
}

func runBenchOut(path string, quick bool) error {
	var entries []benchEntry
	type largest struct{ tree, compiled int64 }
	var last largest
	// compiledNs keeps the E15 compiled baselines for the E18 bitmap
	// comparison, keyed by (query, blocks).
	compiledNs := map[string]int64{}
	for _, src := range benchQueries {
		q := parse.MustQuery(src)
		f, err := rewrite.Rewrite(q)
		if err != nil {
			return fmt.Errorf("bench-out: %s has no rewriting: %v", src, err)
		}
		// The E15 "compiled" rows and the E18 bitmap gate's baseline are
		// the scalar program; E18 times the lowered one.
		prog, err := fo.CompileScalar(f)
		if err != nil {
			return fmt.Errorf("bench-out: compile %s: %v", src, err)
		}
		for _, blocks := range benchSizes(quick) {
			rng := rand.New(rand.NewSource(int64(blocks)))
			opt := gen.DBOptions{BlocksPerRelation: blocks, MaxBlockSize: 2,
				DomainPerVariable: blocks, ConstantBias: 0.7}
			d := gen.Database(rng, q, opt)
			declareAll(d, q)
			want := fo.Eval(d, f)
			bound := prog.Bind(d.Interned())
			if bound.Eval() != want {
				return fmt.Errorf("bench-out: compiled disagrees with tree walker on %s blocks=%d", src, blocks)
			}
			runs := []struct {
				engine string
				body   func()
			}{
				{"tree-walk", func() { fo.Eval(d, f) }},
				{"compiled", func() { bound.Eval() }},
			}
			for _, r := range runs {
				body := r.body
				res := testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						body()
					}
				})
				e := benchEntry{
					Experiment:  "E15",
					Query:       src,
					Blocks:      blocks,
					Facts:       d.Size(),
					Engine:      r.engine,
					NsPerOp:     res.NsPerOp(),
					AllocsPerOp: res.AllocsPerOp(),
					BytesPerOp:  res.AllocedBytesPerOp(),
				}
				entries = append(entries, e)
				fmt.Printf("  %-45s blocks=%-5d %-17s %10d ns/op %6d allocs/op\n",
					src, blocks, r.engine, e.NsPerOp, e.AllocsPerOp)
				switch r.engine {
				case "tree-walk":
					last.tree = e.NsPerOp
				case "compiled":
					last.compiled = e.NsPerOp
					compiledNs[benchKey(src, blocks)] = e.NsPerOp
				}
			}
		}
	}
	if last.compiled > last.tree {
		return fmt.Errorf("bench-out: compiled (%d ns/op) slower than tree walker (%d ns/op) on the largest instance",
			last.compiled, last.tree)
	}
	fmt.Printf("  largest instance: compiled %d ns/op vs tree-walk %d ns/op (%.1fx)\n",
		last.compiled, last.tree, float64(last.tree)/float64(max64(last.compiled, 1)))
	if err := runBenchCyclic(&entries, quick); err != nil {
		return err
	}
	if err := runBenchDelta(&entries, quick); err != nil {
		return err
	}
	if err := runBenchBitmap(&entries, quick, compiledNs); err != nil {
		return err
	}
	doc := benchDocOut{
		Meta: benchMeta{
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
		},
		Entries: entries,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %d entries to %s\n", len(entries), path)
	return nil
}

func benchKey(src string, blocks int) string {
	return fmt.Sprintf("%s@%d", src, blocks)
}

// cyclicBenchQuery is the non-FO workload: the paper's q1 mutual-
// negation shape, where the planner's matching decider replaces naive
// repair enumeration (docs/PLANNER.md).
const cyclicBenchQuery = "R(x | y), !S(y | x)"

// cyclicBenchSizes stay small because the naive baseline enumerates up
// to 2^(2·blocks) repairs per evaluation.
func cyclicBenchSizes(quick bool) []int {
	if quick {
		return []int{2, 4, 6}
	}
	return []int{4, 8, 10}
}

// runBenchCyclic appends the cyclic-query records: matching decider vs
// naive repair enumeration on the same instances, cross-checked for
// agreement before timing. The run fails if the decider is not faster
// than enumeration on the largest instance.
func runBenchCyclic(entries *[]benchEntry, quick bool) error {
	q := parse.MustQuery(cyclicBenchQuery)
	plan := planner.New(q, false)
	if plan.Class != planner.ClassMatching {
		return fmt.Errorf("bench-out: %s classified %s, want %s", cyclicBenchQuery, plan.Class, planner.ClassMatching)
	}
	type largest struct{ naive, matching int64 }
	var last largest
	for _, blocks := range cyclicBenchSizes(quick) {
		rng := rand.New(rand.NewSource(int64(5000 + blocks)))
		opt := gen.DBOptions{BlocksPerRelation: blocks, MaxBlockSize: 2,
			DomainPerVariable: blocks, ConstantBias: 0.7}
		d := gen.Database(rng, q, opt)
		declareAll(d, q)
		want := naive.IsCertain(q, d)
		got, ok := plan.Certain(d.Interned())
		if !ok || got != want {
			return fmt.Errorf("bench-out: matching decider (certain=%v ok=%v) disagrees with naive (%v) on %s blocks=%d",
				got, ok, want, cyclicBenchQuery, blocks)
		}
		runs := []struct {
			engine string
			body   func()
		}{
			{"naive-repair", func() { naive.IsCertain(q, d) }},
			{"matching", func() { plan.Certain(d.Interned()) }},
		}
		for _, r := range runs {
			body := r.body
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					body()
				}
			})
			e := benchEntry{
				Experiment:  "E16",
				Query:       cyclicBenchQuery,
				Blocks:      blocks,
				Facts:       d.Size(),
				Engine:      r.engine,
				NsPerOp:     res.NsPerOp(),
				AllocsPerOp: res.AllocsPerOp(),
				BytesPerOp:  res.AllocedBytesPerOp(),
			}
			*entries = append(*entries, e)
			fmt.Printf("  %-45s blocks=%-5d %-17s %10d ns/op %6d allocs/op\n",
				cyclicBenchQuery, blocks, r.engine, e.NsPerOp, e.AllocsPerOp)
			switch r.engine {
			case "naive-repair":
				last.naive = e.NsPerOp
			case "matching":
				last.matching = e.NsPerOp
			}
		}
	}
	if last.matching >= last.naive {
		return fmt.Errorf("bench-out: matching decider (%d ns/op) not faster than naive enumeration (%d ns/op) on the largest cyclic instance",
			last.matching, last.naive)
	}
	fmt.Printf("  largest cyclic instance: matching %d ns/op vs naive %d ns/op (%.1fx)\n",
		last.matching, last.naive, float64(last.naive)/float64(max64(last.matching, 1)))
	return nil
}

// declareAll mirrors core.withQueryRels for the tree-walk measurements:
// the compiled path treats undeclared relations as empty, the tree
// walker needs them declared.
func declareAll(d *db.Database, q schema.Query) {
	for _, a := range q.Atoms() {
		if d.Relation(a.Rel) == nil {
			d.MustDeclare(a.Rel, a.Arity(), a.Key)
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
