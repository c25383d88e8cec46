package core_test

import (
	"math/rand"
	"testing"

	"cqa/internal/core"
	"cqa/internal/gen"
	"cqa/internal/naive"
	"cqa/internal/parse"
)

func TestPreparedFO(t *testing.T) {
	p, err := core.Prepare(parse.MustQuery("P(x | y), !N('c' | y)"))
	if err != nil {
		t.Fatal(err)
	}
	if !p.InFO() {
		t.Fatal("q3 should be FO")
	}
	d := parse.MustDatabase(`
		P(p1 | v1)
		P(p2 | v2)
		N(c | v1)
	`)
	if !p.Certain(d) {
		t.Error("q3 should be certain here")
	}
	if !p.CertainTreeWalk(d) {
		t.Error("tree walker disagrees with the compiled rewriting")
	}
	q := p.Classification().Query
	for _, eng := range []core.Engine{core.EngineRewriting, core.EngineDirect} {
		if got, err := core.Certain(q, d, eng); err != nil || !got {
			t.Errorf("Certain(engine %d) = %v, %v", eng, got, err)
		}
	}
}

func TestPreparedHardQuery(t *testing.T) {
	p, err := core.Prepare(parse.MustQuery("R(x | y), !S(y | x)"))
	if err != nil {
		t.Fatal(err)
	}
	if p.InFO() {
		t.Fatal("q1 should not be FO")
	}
	d := parse.MustDatabase("R(g | b)\nS(b | g)")
	if p.Certain(d) != naive.IsCertain(p.Classification().Query, d) {
		t.Error("fallback disagrees with naive")
	}
	if _, err := core.Certain(p.Classification().Query, d, core.EngineRewriting); err == nil {
		t.Error("rewriting engine should fail for a hard query")
	}
}

func TestPreparedInvalid(t *testing.T) {
	q := parse.MustQuery("R(x | y)")
	q.Lits = append(q.Lits, q.Lits[0]) // create a self-join
	if _, err := core.Prepare(q); err == nil {
		t.Error("invalid query should fail to prepare")
	}
}

// Prepared answers match one-shot Certain across random queries and
// databases — and preparation dominates the per-call cost for FO queries.
func TestPreparedMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	opts := gen.DefaultQueryOptions()
	dbOpts := gen.DefaultDBOptions()
	for trial := 0; trial < 30; trial++ {
		q := gen.Query(rng, opts)
		p, err := core.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			d := gen.Database(rng, q, dbOpts)
			want, err := core.Certain(q, d, core.EngineAuto)
			if err != nil {
				t.Fatal(err)
			}
			if got := p.Certain(d); got != want {
				t.Fatalf("prepared = %v, one-shot = %v on %s", got, want, q)
			}
		}
	}
}
