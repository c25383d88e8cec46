package core_test

import (
	"math/rand"
	"testing"

	"cqa/internal/core"
	"cqa/internal/fo"
	"cqa/internal/gen"
)

// FuzzRewritingCompiles is the totality argument behind Prepare's
// compile step: for every generated query whose CERTAINTY problem is in
// FO, Prepare must succeed (the rewriting compiles) and the compiled
// program must agree with the tree walker on a generated database, with
// and without support recording. Queries are drawn like the repository
// soak test's. Part of `make fuzz`.
func FuzzRewritingCompiles(f *testing.F) {
	for i := 0; i < 24; i++ {
		f.Add(int64(i), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		opts := gen.QueryOptions{
			MaxPositive: 1 + int(shape%4),
			MaxNegated:  int(shape/4) % 4,
			MaxArity:    2 + int(shape/16)%3,
			Vars:        []string{"x", "y", "z", "w", "v"},
			ConstProb:   0.2,
		}
		q := gen.Query(rng, opts)
		cls, err := core.Classify(q)
		if err != nil {
			t.Fatalf("classify %s: %v", q, err)
		}
		p, err := core.Prepare(q)
		if err != nil {
			t.Fatalf("Prepare(%s): %v", q, err)
		}
		if cls.Verdict != core.VerdictFO {
			return
		}
		d := gen.Database(rng, q, gen.DBOptions{
			BlocksPerRelation: 3, MaxBlockSize: 2, DomainPerVariable: 3, ConstantBias: 0.6,
		})
		want := fo.Eval(d, cls.Rewriting)
		if got := p.Certain(d); got != want {
			t.Fatalf("Certain = %v, fo.Eval of the rewriting = %v on %s\n%s", got, want, q, d)
		}
		if got, _, ok := p.CertainSupport(d); !ok || got != want {
			t.Fatalf("CertainSupport = %v (supported %v), want %v on %s\n%s", got, ok, want, q, d)
		}
	})
}
