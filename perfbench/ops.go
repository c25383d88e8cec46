package main

import (
	"fmt"
	"math/rand"
	"sync"

	"cqa/internal/db"
	"cqa/internal/shard"
)

// Operation sequences. Every workload draws its operations from a
// generator seeded by --seed, so the untraced and the traced run of one
// seed issue the same sequence.

// readFamilies are the non-ground queries the session and side phases
// read; each family's relations are what its write batches touch.
var readFamilies = []struct {
	name  string
	query string
	rels  []string
}{
	{"fo-sweep", "Lives(p | t), !Born(p | t), !Likes(p, t)", []string{"Lives", "Born", "Likes"}},
	{"chain-sweep", "R0(x0 | x1), R1(x1 | x2), R2(x2 | x3), !N(x0 | x1)", []string{"R0", "R1", "R2", "N"}},
	{"matching", "P(x | y), !Q(y | x)", []string{"P", "Q"}},
	{"hard", "R(x | y), S(y | x)", []string{"R", "S"}},
}

// opSeq is a seeded operation sequence, drawn on demand and kept, so
// operation i is the same whichever reader asks for it. Shapes follow
// the operation's position, keys the seeded generator: every stretch
// of the run then holds the same mix, and only the keys vary.
type opSeq struct {
	mu   sync.Mutex
	draw func(i int) string
	ops  []string
}

func (s *opSeq) at(i int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.ops) <= i {
		s.ops = append(s.ops, s.draw(len(s.ops)))
	}
	return s.ops[i]
}

// pointOps draws read-point operations: one in twelve is a non-ground
// query (the three read families in turn), the rest are ground-key FO
// queries on a Zipf-distributed key, alternating the two shapes.
func pointOps(seed int64, blocks int) *opSeq {
	zipf := rand.NewZipf(rand.New(rand.NewSource(seed^0x5eed)), 1.1, 1, uint64(blocks-1))
	return &opSeq{draw: func(i int) string {
		if i%12 == 0 {
			return readFamilies[(i/12)%3].query
		}
		k := zipf.Uint64()
		if i%2 == 0 {
			return fmt.Sprintf("Lives('p%d' | t), !Born('p%d' | t), !Likes('p%d', t)", k, k, k)
		}
		return fmt.Sprintf("R0('x%d' | a), R1(a | b), R2(b | c), !N('x%d' | a)", k, k)
	}}
}

// tick is one open-loop step of a write session: a small insert or
// delete batch, then a read of the family query the batch invalidated.
type tick struct {
	del    bool
	facts  []db.Fact
	text   string
	family int
	toggle bool // the batch flips the watched query
}

// Watched query and its toggle: the seed holds Lives(pw | tw) alone in
// its blocks, so the query is certain exactly while Likes(pw, tw) is
// absent. Batches that carry the toggle flip it.
const (
	watchQuery  = "Lives('pw' | t), !Born('pw' | t), !Likes('pw', t)"
	toggleShare = 0.97
)

var (
	watchSeed  = db.F("Lives", "pw", "tw")
	watchFlipF = db.F("Likes", "pw", "tw")
)

// factPool tracks the present facts of some relations for O(1) random
// picks while generating a write sequence.
type factPool struct {
	facts []db.Fact
	index map[string]int
}

func newFactPool() *factPool { return &factPool{index: map[string]int{}} }

func (p *factPool) add(f db.Fact) {
	p.index[f.String()] = len(p.facts)
	p.facts = append(p.facts, f)
}

func (p *factPool) has(f db.Fact) bool { _, ok := p.index[f.String()]; return ok }

func (p *factPool) remove(f db.Fact) {
	k := f.String()
	i, ok := p.index[k]
	if !ok {
		return
	}
	last := p.facts[len(p.facts)-1]
	p.facts[i] = last
	p.index[last.String()] = i
	p.facts = p.facts[:len(p.facts)-1]
	delete(p.index, k)
}

// genTicks derives n ticks from the database they will apply to. Ticks
// alternate between inserting facts the database lacks and deleting
// present ones, so the watch toggle can ride most batches; families
// rotate in pairs (an insert, then a delete), so every read follows a
// write that invalidated it. With
// shards > 1 every batch stays on one owner shard, so each write moves
// the global version by exactly one.
func genTicks(seed int64, d *db.Database, blocks, n, batch, shards int) []tick {
	rng := rand.New(rand.NewSource(seed ^ 0x7a11))
	owner := func(f db.Fact) int { return shard.Owner(f.Rel, f.Args[:keyLen(f.Rel)], shards) }
	pools := make([]*factPool, len(readFamilies))
	for i, fam := range readFamilies {
		pools[i] = newFactPool()
		for _, rel := range fam.rels {
			for _, f := range d.Facts(rel) {
				if !f.Equal(watchSeed) && !f.Equal(watchFlipF) {
					pools[i].add(f)
				}
			}
		}
	}
	toggled := d.Has(watchFlipF)
	num := func(prefix string) string { return fmt.Sprintf("%s%d", prefix, rng.Intn(blocks)) }
	fresh := func(fam int) db.Fact {
		switch fam {
		case 0:
			p, t := num("p"), fmt.Sprintf("t%d", rng.Intn(towns))
			return db.F([]string{"Lives", "Born", "Likes"}[rng.Intn(3)], p, t)
		case 1:
			switch rng.Intn(4) {
			case 0:
				return db.F("R0", num("x"), num("y"))
			case 1:
				return db.F("R1", num("y"), num("z"))
			case 2:
				return db.F("R2", num("z"), num("w"))
			}
			return db.F("N", num("x"), num("y"))
		case 2:
			if rng.Intn(2) == 0 {
				return db.F("P", num("u"), num("v"))
			}
			return db.F("Q", num("v"), num("u"))
		}
		i := rng.Intn(hardKeys)
		j := (i + rng.Intn(2)) % hardKeys
		if rng.Intn(2) == 0 {
			return db.F("R", fmt.Sprintf("r%d", i), fmt.Sprintf("s%d", j))
		}
		return db.F("S", fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", j))
	}
	ticks := make([]tick, n)
	for i := range ticks {
		fam := (i / 2) % len(readFamilies)
		tk := tick{del: i%2 == 1, family: fam}
		tk.toggle = tk.del == toggled && rng.Float64() < toggleShare
		target := rng.Intn(shards)
		if tk.toggle {
			target = owner(watchFlipF)
		}
		seen := map[string]bool{}
		for tries := 0; len(tk.facts) < batch && tries < 64*batch; tries++ {
			var f db.Fact
			if tk.del {
				if len(pools[fam].facts) == 0 {
					break
				}
				f = pools[fam].facts[rng.Intn(len(pools[fam].facts))]
			} else if f = fresh(fam); pools[fam].has(f) {
				continue
			}
			if seen[f.String()] || owner(f) != target {
				continue
			}
			seen[f.String()] = true
			tk.facts = append(tk.facts, f)
		}
		for _, f := range tk.facts {
			if tk.del {
				pools[fam].remove(f)
			} else {
				pools[fam].add(f)
			}
		}
		if tk.toggle {
			tk.facts = append(tk.facts, watchFlipF)
			toggled = !toggled
		}
		tk.text = factText(tk.facts)
		ticks[i] = tk
	}
	return ticks
}
