package main

import (
	"fmt"
	"sync"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/fo"
	"cqa/internal/graphx"
	"cqa/internal/matching"
	"cqa/internal/naive"
	"cqa/internal/planner"
	"cqa/internal/schema"
)

// Oracles check every served answer after the timed window. Where one
// exists, the oracle shares no evaluation code with the strategy that
// served the answer:
//
//   - FO queries: the tree-walking model checker fo.Eval over the
//     consistent rewriting (served by the compiled bitmap evaluator);
//   - the mutual-negation pattern P(x | y), !Q(y | x): the string-keyed
//     Hopcroft–Karp of matching.MaxMatching over a bipartite graph built
//     here (served by the planner's interned-id decider);
//   - other non-FO queries: repair enumeration, naive.IsCertain.

type oracle struct {
	mu   sync.Mutex
	cls  map[string]*core.Classification
	plan map[string]*planner.Plan
}

func newOracle() *oracle {
	return &oracle{cls: map[string]*core.Classification{}, plan: map[string]*planner.Plan{}}
}

func (o *oracle) classify(q schema.Query) (*core.Classification, *planner.Plan, error) {
	key := q.String()
	o.mu.Lock()
	c, ok := o.cls[key]
	p := o.plan[key]
	o.mu.Unlock()
	if ok {
		return c, p, nil
	}
	c, err := core.Classify(q)
	if err != nil {
		return nil, nil, err
	}
	p = planner.New(q, c.Verdict == core.VerdictFO)
	o.mu.Lock()
	o.cls[key], o.plan[key] = c, p
	o.mu.Unlock()
	return c, p, nil
}

// certain answers CERTAINTY(q) on d.
func (o *oracle) certain(q schema.Query, d *db.Database) (bool, error) {
	c, p, err := o.classify(q)
	if err != nil {
		return false, err
	}
	d = relevant(q, d)
	switch {
	case c.Verdict == core.VerdictFO:
		return fo.Eval(d, c.Rewriting), nil
	case p.Class == planner.ClassMatching:
		return matchingCertain(q, d)
	default:
		return naive.IsCertain(q, d), nil
	}
}

// matchingCertain decides {P(u | v), ¬N(v | u)} from the definition: a
// repair falsifies q iff every chosen P(a | b) has N(b | a) chosen too,
// which needs a matching of the mutual graph saturating the P keys.
func matchingCertain(q schema.Query, d *db.Database) (bool, error) {
	var pos, neg string
	for _, l := range q.Lits {
		if l.Neg {
			neg = l.Atom.Rel
		} else {
			pos = l.Atom.Rel
		}
	}
	pr := d.Relation(pos)
	if pr == nil || pr.Size() == 0 {
		return false, nil
	}
	seenL, seenR := map[string]bool{}, map[string]bool{}
	var left, right []string
	adj := map[string][]string{}
	for _, f := range d.Facts(pos) {
		a, b := f.Args[0], f.Args[1]
		if !seenL[a] {
			seenL[a] = true
			left = append(left, a)
		}
		if d.Has(db.F(neg, b, a)) {
			if !seenR[b] {
				seenR[b] = true
				right = append(right, b)
			}
			adj[a] = append(adj[a], b)
		}
	}
	g := graphx.NewBipartite(left, right)
	for a, bs := range adj {
		g.Adj[a] = bs
	}
	if len(g.Left) != len(left) {
		return false, fmt.Errorf("oracle: bipartite graph lost vertices")
	}
	return len(matching.MaxMatching(g)) < len(left), nil
}

// relevant returns the part of d a query can observe: the whole blocks
// of every relation q mentions whose keys are reachable from q's
// constants. Atoms are processed once their key terms are bound
// (constants, or variables bound by a processed positive atom); when
// some atom never becomes processable d is returned unchanged. Every repair of d restricts to a repair of
// the result that satisfies q exactly when the original does, so the
// oracle's answer is unchanged — the projection only saves time.
func relevant(q schema.Query, d *db.Database) *db.Database {
	cand := map[string]map[string]bool{} // variable → candidate values
	out := db.New()
	declare := func(dst *db.Database) {
		for _, a := range q.Atoms() {
			if r := d.Relation(a.Rel); r != nil {
				_ = dst.DeclareRelation(a.Rel, r.Arity, r.Key)
			} else {
				_ = dst.DeclareRelation(a.Rel, a.Arity(), a.Key)
			}
		}
	}
	declare(out)
	bound := make([]bool, len(q.Lits))
	// Candidate sets only grow, so passes repeat until one adds nothing.
	for changed := true; changed; {
		changed = false
		for i, l := range q.Lits {
			keys, ok := keyTuples(l.Atom, cand)
			if !ok {
				continue
			}
			bound[i] = true
			for _, k := range keys {
				for _, f := range d.Block(l.Atom.Rel, k) {
					if !out.Has(f) {
						_ = out.Insert(f)
						changed = true
					}
					if l.Neg {
						continue
					}
					for j, t := range l.Atom.Terms {
						if !t.IsVar {
							continue
						}
						if cand[t.Name] == nil {
							cand[t.Name] = map[string]bool{}
							changed = true
						}
						if !cand[t.Name][f.Args[j]] {
							cand[t.Name][f.Args[j]] = true
							changed = true
						}
					}
				}
			}
		}
	}
	for _, b := range bound {
		if !b {
			return d
		}
	}
	return out
}

// keyTuples enumerates the key tuples an atom can take under the
// candidate sets; ok is false while some key variable is unbound.
func keyTuples(a schema.Atom, cand map[string]map[string]bool) ([][]string, bool) {
	tuples := [][]string{{}}
	for _, t := range a.KeyTerms() {
		var vals []string
		if !t.IsVar {
			vals = []string{t.Name}
		} else {
			c, ok := cand[t.Name]
			if !ok {
				return nil, false
			}
			for v := range c {
				vals = append(vals, v)
			}
		}
		next := make([][]string, 0, len(tuples)*len(vals))
		for _, tu := range tuples {
			for _, v := range vals {
				next = append(next, append(append([]string(nil), tu...), v))
			}
		}
		tuples = next
	}
	return tuples, true
}
