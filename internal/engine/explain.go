package engine

import (
	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/planner"
	"cqa/internal/schema"
	"cqa/internal/shard"
)

// This file is the introspection surface behind explain output and the
// strategy/cache metric labels: it names, without evaluating anything,
// the evaluation strategy certainWith will take and the shard plan
// certainSharded will take. The names feed the `eval_total{strategy=…}`
// metric and the `"explain": true` response, and are the observable
// hooks the ROADMAP's meta-engine strategy selector will build on.

// Evaluation strategy names, as reported by Strategy and carried in the
// strategy metric label.
const (
	// StrategyCompiled evaluates the compiled FO rewriting whose
	// quantifiers all stayed per-candidate loops (docs/EVAL.md).
	StrategyCompiled = "compiled"
	// StrategyCompiledBitmap evaluates the compiled rewriting with at
	// least one quantifier lowered to word-parallel sweeps over IDSet
	// membership words (docs/EVAL.md). The program decides between this
	// and StrategyCompiled; no option does.
	StrategyCompiledBitmap = "compiled-bitmap"
	// StrategyTreeWalk interprets the rewriting with fo.Eval — selected
	// by Options.ForceTreeWalk.
	StrategyTreeWalk = "tree-walk"
	// The non-FO strategies are named by the planner, which selects them
	// per query shape (docs/PLANNER.md): Hopcroft–Karp bipartite matching
	// for the mutual-negation pattern, union-find reachability for the
	// all-key edge pattern, and repair enumeration as the last resort.
	StrategyMatching     = planner.StrategyMatching
	StrategyReachability = planner.StrategyReachability
	StrategyNaive        = planner.StrategyNaive
)

// Strategy reports the evaluation strategy certainWith takes for p under
// this engine's options. The mapping mirrors certainWith exactly: not
// in FO → the planner's verdict (a polynomial graph decider when the
// query shape has one, repair enumeration otherwise — ForceTreeWalk
// disables the deciders too, it is the rollback switch for both
// pipelines); ForceTreeWalk → tree walker; otherwise the compiled
// program, labelled by whether any quantifier vectorized.
func (e *Engine) Strategy(p *core.Prepared) string {
	switch {
	case !p.InFO() && e.opt.ForceTreeWalk:
		return StrategyNaive
	case !p.InFO():
		return p.PlanStrategy()
	case e.opt.ForceTreeWalk:
		return StrategyTreeWalk
	case p.HasBitmap():
		return StrategyCompiledBitmap
	default:
		return StrategyCompiled
	}
}

// Options returns a copy of the engine's configuration (for explain
// verification and operator tooling).
func (e *Engine) Options() Options { return e.opt }

// CertainWith evaluates a prepared plan on d honouring the engine's
// options — the same dispatch Certain takes after preparation. Servers
// that already hold p (from PrepareCached, for explain output) use this
// so the strategy explain reports is the strategy actually executed.
func (e *Engine) CertainWith(p *core.Prepared, d *db.Database) (bool, error) {
	if err := e.begin(); err != nil {
		return false, err
	}
	defer e.end()
	return e.certainWith(p, d), nil
}

// PrepareCached is Prepare plus the plan-cache outcome: hit reports
// whether the plan came from the cache. Explain and the cache-outcome
// metric label need the distinction; Prepare alone hides it.
func (e *Engine) PrepareCached(q schema.Query) (p *core.Prepared, hit bool, err error) {
	if err := e.begin(); err != nil {
		return nil, false, err
	}
	defer e.end()
	return e.cache.load(q.Signature(), func() (*core.Prepared, error) { return core.Prepare(q) })
}

// Shard plan names, as reported by ShardPlan.
const (
	// ShardPlanSingle: one shard holds everything; evaluate there.
	ShardPlanSingle = "single"
	// ShardPlanScatter: single positive atom; per-shard verdicts
	// OR-combine over the touched shards.
	ShardPlanScatter = "scatter"
	// ShardPlanPinned: multi-atom query whose ground keys confine it to
	// one shard's blocks; that shard's verdict is the global one.
	ShardPlanPinned = "pinned"
	// ShardPlanUnion: joins across shards; evaluate on the merged union.
	ShardPlanUnion = "union"
)

// ShardPlan decides how q's verdict over n shards decomposes, with
// owner placing each block (rel, key) on a shard. It is the one shard
// planner: certainSharded evaluates by it, explain reports it, and the
// router forwards or gathers by it.
//
// Every plan but union is answered by OR-combining the verdicts of the
// returned shards on their own slices (see the package comment of
// sharded.go for why that is exact): one shard for single and pinned,
// the touched shards for scatter. For union the shards are those whose
// blocks the verdict can depend on — every shard unless each key is
// ground — and the verdict needs their merged facts.
func ShardPlan(q schema.Query, n int, owner func(rel string, key []string) int) (plan string, shards []int) {
	if n <= 1 {
		return ShardPlanSingle, []int{0}
	}
	touched, all := shard.TouchedOwned(q, n, owner)
	switch {
	case len(q.Lits) == 1 && !q.Lits[0].Neg:
		return ShardPlanScatter, touched
	case !all && len(touched) == 1:
		return ShardPlanPinned, touched
	}
	return ShardPlanUnion, touched
}
