package main

import (
	"fmt"
	"math/rand"
	"strings"

	"cqa/internal/db"
)

// The benchmark's data: the E15/E16 schema at serving size, plus the
// small hard pair R/S, all generated from the workload seed. "blocks"
// is the number of key values per relation; some relations hold a
// block for only a share of them, and a quarter of the blocks hold two
// facts.
//
//	Lives(p | t), Born(p | t), Likes(p, t)   person/town (E15 qa)
//	R0(x0 | x1), R1(x1 | x2), R2(x2 | x3), N(x0 | x1)   chain (E15)
//	P(x | y), Q(y | x)                       mutual pair (E16 matching)
//	R(x | y), S(y | x)                       small hard pair (naive-repair)

const (
	towns       = 48   // Lives/Born/Likes value domain
	inconsShare = 0.25 // share of blocks holding two facts
	hardKeys    = 6    // R/S keys: at most 2^12 repairs for naive
)

// relSigs lists every relation with its arity and key length.
var relSigs = []struct {
	name       string
	arity, key int
}{
	{"Lives", 2, 1}, {"Born", 2, 1}, {"Likes", 2, 2},
	{"R0", 2, 1}, {"R1", 2, 1}, {"R2", 2, 1}, {"N", 2, 1},
	{"P", 2, 1}, {"Q", 2, 1},
	{"R", 2, 1}, {"S", 2, 1},
}

// genDB builds the seeded database at the given block count.
func genDB(rng *rand.Rand, blocks int) *db.Database {
	d := db.New()
	for _, s := range relSigs {
		d.MustDeclare(s.name, s.arity, s.key)
	}
	add := func(rel string, args ...string) { _ = d.Insert(db.F(rel, args...)) }
	pair := func(rel, k string, v func() string) {
		add(rel, k, v())
		if rng.Float64() < inconsShare {
			add(rel, k, v())
		}
	}
	town := func() string { return fmt.Sprintf("t%d", rng.Intn(towns)) }
	for i := 0; i < blocks; i++ {
		p := fmt.Sprintf("p%d", i)
		pair("Lives", p, town)
		if rng.Intn(2) == 0 {
			pair("Born", p, town)
		}
		if rng.Intn(3) == 0 {
			add("Likes", p, town())
		}
		x := fmt.Sprintf("x%d", i)
		val := func(prefix string) func() string {
			return func() string { return fmt.Sprintf("%s%d", prefix, rng.Intn(blocks)) }
		}
		pair("R0", x, val("y"))
		pair("R1", fmt.Sprintf("y%d", i), val("z"))
		if rng.Intn(4) != 0 {
			pair("R2", fmt.Sprintf("z%d", i), val("w"))
		}
		if rng.Intn(2) == 0 {
			pair("N", x, val("y"))
		}
		u := fmt.Sprintf("u%d", i)
		// P/Q: mutual edges dominate so the matching is non-trivial.
		v := fmt.Sprintf("v%d", rng.Intn(blocks))
		add("P", u, v)
		if rng.Float64() < inconsShare {
			add("P", u, fmt.Sprintf("v%d", rng.Intn(blocks)))
		}
		add("Q", v, u)
	}
	add(watchSeed.Rel, watchSeed.Args...)
	for i := 0; i < hardKeys; i++ {
		// Values stay within {i, i+1}, so no hard block ever holds more
		// than two facts, here or after the write sessions' inserts.
		add("R", fmt.Sprintf("r%d", i), fmt.Sprintf("s%d", (i+rng.Intn(2))%hardKeys))
		add("S", fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", (i+rng.Intn(2))%hardKeys))
	}
	return d
}

// factText renders facts in the cqa database syntax.
func factText(facts []db.Fact) string {
	var b strings.Builder
	for _, f := range facts {
		b.WriteString(f.Rel)
		b.WriteByte('(')
		for i, a := range f.Args {
			if i > 0 {
				if i == keyLen(f.Rel) {
					b.WriteString(" | ")
				} else {
					b.WriteString(", ")
				}
			}
			b.WriteString(a)
		}
		b.WriteString(")\n")
	}
	return b.String()
}

func keyLen(rel string) int {
	for _, s := range relSigs {
		if s.name == rel {
			return s.key
		}
	}
	return 1
}
