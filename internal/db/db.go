// Package db implements the (possibly inconsistent) database model of the
// paper: a finite set of facts over relations with primary-key signatures
// [n, k]. It provides blocks (maximal sets of key-equal facts), consistency
// checking, repair enumeration and counting, and the column/key indexes
// used by the first-order model checker.
package db

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// Fact is an R-fact: a relation name and constant arguments.
type Fact struct {
	Rel  string
	Args []string
}

// F is shorthand for constructing a fact.
func F(rel string, args ...string) Fact { return Fact{Rel: rel, Args: args} }

// String renders the fact without signature information (no key bar),
// constants quoted as in the fact syntax.
func (f Fact) String() string { return FormatFact(f, 0) }

// Equal reports whether two facts are identical.
func (f Fact) Equal(g Fact) bool {
	if f.Rel != g.Rel || len(f.Args) != len(g.Args) {
		return false
	}
	for i := range f.Args {
		if f.Args[i] != g.Args[i] {
			return false
		}
	}
	return true
}

const sep = "\x00"

func tupleKey(args []string) string { return strings.Join(args, sep) }

// Relation is the stored extension of one relation name together with its
// signature.
type Relation struct {
	Name  string
	Arity int
	// Key is the number of leading primary-key positions.
	Key int

	facts  map[string]Fact   // full-tuple key -> fact
	blocks map[string][]Fact // key-tuple key -> block, insertion order
	// blockKeys holds the block keys in arbitrary (insertion) order;
	// ordered readers go through sortedBlockKeys, which sorts a copy
	// lazily and memoizes it, so bulk loads are linearithmic instead of
	// quadratic (no per-insert insertion sort). Iteration order remains a
	// function of the stored content alone — two databases holding the
	// same facts iterate identically regardless of insert/remove history.
	// The store layer depends on this: a database recovered from a
	// checkpoint plus WAL replay must behave exactly like the one that
	// wrote it.
	blockKeys []string
	// sortedBlocks memoizes the sorted copy of blockKeys between writes;
	// once published a copy is immutable, so racing readers that rebuild
	// it concurrently are safe.
	sortedBlocks atomic.Pointer[[]string]
	// colVals[i] maps each distinct value in column i to its reference
	// count, so removals keep the index exact instead of monotonically
	// stale.
	colVals []map[string]int
}

func newRelation(name string, arity, key int) *Relation {
	cols := make([]map[string]int, arity)
	for i := range cols {
		cols[i] = make(map[string]int)
	}
	return &Relation{
		Name:  name,
		Arity: arity,
		Key:   key,
		facts: make(map[string]Fact), blocks: make(map[string][]Fact),
		colVals: cols,
	}
}

// Size returns the number of facts stored.
func (r *Relation) Size() int { return len(r.facts) }

// NumBlocks returns the number of blocks.
func (r *Relation) NumBlocks() int { return len(r.blocks) }

// AllKey reports whether the relation's signature is all-key.
func (r *Relation) AllKey() bool { return r.Key == r.Arity }

// sortedBlockKeys returns the block keys in sorted order, rebuilding the
// memoized copy if a write invalidated it. Safe for concurrent readers.
func (r *Relation) sortedBlockKeys() []string {
	if p := r.sortedBlocks.Load(); p != nil {
		return *p
	}
	out := append([]string(nil), r.blockKeys...)
	sort.Strings(out)
	r.sortedBlocks.Store(&out)
	return out
}

// ColumnValues returns the distinct values in column i (0-based), sorted.
func (r *Relation) ColumnValues(i int) []string {
	out := make([]string, 0, len(r.colVals[i]))
	for v := range r.colVals[i] {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Database is a finite set of facts over a fixed set of relations.
//
// Concurrency: a Database is safe for any number of concurrent readers
// (Has, Facts, Block, Blocks, ColumnValues, ActiveDomain, NumRepairs,
// Size, String, Repairs, Clone, …) as long as no goroutine mutates it at
// the same time. Mutating methods — DeclareRelation, Insert, Remove, and
// their Must variants — are not safe to call concurrently with anything
// else. The memoized ActiveDomain and NumRepairs values are published
// atomically, so racing readers that fill them concurrently are safe.
type Database struct {
	rels map[string]*Relation
	// relNames preserves deterministic iteration order.
	relNames []string
	// adom, numRepairs, and interned memoize ActiveDomain, NumRepairs,
	// and the dictionary-encoded view between writes; writers invalidate,
	// racing readers may each recompute and publish (identical) values.
	adom       atomic.Pointer[[]string]
	numRepairs atomic.Pointer[float64]
	interned   atomic.Pointer[Interned]
}

// New returns an empty database.
func New() *Database {
	return &Database{rels: make(map[string]*Relation)}
}

// DeclareRelation registers a relation name with signature [arity, key].
// It is idempotent for matching signatures and returns an error on a
// signature clash.
func (d *Database) DeclareRelation(name string, arity, key int) error {
	if arity < 1 || key < 1 || key > arity {
		return fmt.Errorf("db: invalid signature [%d, %d] for %s", arity, key, name)
	}
	if r, ok := d.rels[name]; ok {
		if r.Arity != arity || r.Key != key {
			return fmt.Errorf("db: relation %s redeclared with signature [%d, %d] (was [%d, %d])",
				name, arity, key, r.Arity, r.Key)
		}
		return nil
	}
	d.rels[name] = newRelation(name, arity, key)
	d.relNames = append(d.relNames, name)
	sort.Strings(d.relNames)
	d.invalidate()
	return nil
}

// invalidate drops memoized read-path state after a write.
func (d *Database) invalidate() {
	d.adom.Store(nil)
	d.numRepairs.Store(nil)
	d.interned.Store(nil)
}

// Relation returns the stored relation for the name, or nil if absent.
func (d *Database) Relation(name string) *Relation { return d.rels[name] }

// RelationNames returns the declared relation names in sorted order.
func (d *Database) RelationNames() []string {
	out := make([]string, len(d.relNames))
	copy(out, d.relNames)
	return out
}

// Insert adds a fact. The relation must have been declared and the arity
// must match. Inserting a duplicate fact is a no-op.
func (d *Database) Insert(f Fact) error {
	r, ok := d.rels[f.Rel]
	if !ok {
		return fmt.Errorf("db: relation %s not declared", f.Rel)
	}
	if len(f.Args) != r.Arity {
		return fmt.Errorf("db: fact %s has arity %d, relation %s has arity %d",
			f, len(f.Args), f.Rel, r.Arity)
	}
	tk := tupleKey(f.Args)
	if _, dup := r.facts[tk]; dup {
		return nil
	}
	r.facts[tk] = f
	bk := tupleKey(f.Args[:r.Key])
	if _, seen := r.blocks[bk]; !seen {
		r.blockKeys = append(r.blockKeys, bk)
		r.sortedBlocks.Store(nil)
	}
	r.blocks[bk] = append(r.blocks[bk], f)
	for i, v := range f.Args {
		r.colVals[i][v]++
	}
	d.invalidate()
	return nil
}

// MustInsert inserts and panics on error; for tests and literals.
func (d *Database) MustInsert(f Fact) {
	if err := d.Insert(f); err != nil {
		panic(err)
	}
}

// MustDeclare declares and panics on error; for tests and literals.
func (d *Database) MustDeclare(name string, arity, key int) {
	if err := d.DeclareRelation(name, arity, key); err != nil {
		panic(err)
	}
}

// Has reports whether the fact is in the database. Unknown relations
// report false.
func (d *Database) Has(f Fact) bool {
	r, ok := d.rels[f.Rel]
	if !ok {
		return false
	}
	_, found := r.facts[tupleKey(f.Args)]
	return found
}

// Facts returns all facts of the relation in deterministic (sorted) order.
func (d *Database) Facts(rel string) []Fact {
	r, ok := d.rels[rel]
	if !ok {
		return nil
	}
	keys := make([]string, 0, len(r.facts))
	for k := range r.facts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Fact, len(keys))
	for i, k := range keys {
		out[i] = r.facts[k]
	}
	return out
}

// AllFacts returns every fact in the database in deterministic order.
func (d *Database) AllFacts() []Fact {
	var out []Fact
	for _, name := range d.relNames {
		out = append(out, d.Facts(name)...)
	}
	return out
}

// Size returns the total number of facts.
func (d *Database) Size() int {
	n := 0
	for _, r := range d.rels {
		n += len(r.facts)
	}
	return n
}

// Block returns the block of facts key-equal to the given key values, in
// insertion order.
func (d *Database) Block(rel string, keyArgs []string) []Fact {
	r, ok := d.rels[rel]
	if !ok {
		return nil
	}
	return r.blocks[tupleKey(keyArgs)]
}

// Blocks calls fn for every block of the relation in sorted block-key
// order (deterministic in the stored content, independent of the
// insert/remove history), stopping early if fn returns false.
func (d *Database) Blocks(rel string, fn func(block []Fact) bool) {
	r, ok := d.rels[rel]
	if !ok {
		return
	}
	for _, bk := range r.sortedBlockKeys() {
		if !fn(r.blocks[bk]) {
			return
		}
	}
}

// IsConsistent reports whether every block is a singleton.
func (d *Database) IsConsistent() bool {
	for _, r := range d.rels {
		for _, b := range r.blocks {
			if len(b) > 1 {
				return false
			}
		}
	}
	return true
}

// ActiveDomain returns the sorted set of constants occurring in the
// database. The result is memoized until the next write; callers must not
// mutate the returned slice.
func (d *Database) ActiveDomain() []string {
	if p := d.adom.Load(); p != nil {
		return *p
	}
	set := make(map[string]bool)
	for _, r := range d.rels {
		for _, col := range r.colVals {
			for v := range col {
				set[v] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	d.adom.Store(&out)
	return out
}

// Clone returns a deep copy of the database.
func (d *Database) Clone() *Database {
	c := New()
	for _, name := range d.relNames {
		r := d.rels[name]
		c.MustDeclare(name, r.Arity, r.Key)
		for _, f := range r.facts {
			c.MustInsert(f)
		}
	}
	return c
}

// clone returns a deep copy of one relation's storage.
func (r *Relation) clone() *Relation {
	c := newRelation(r.Name, r.Arity, r.Key)
	for k, f := range r.facts {
		c.facts[k] = f
	}
	for k, b := range r.blocks {
		c.blocks[k] = append([]Fact(nil), b...)
	}
	c.blockKeys = append([]string(nil), r.blockKeys...)
	// A published sorted copy is immutable, so the clone can share it.
	if p := r.sortedBlocks.Load(); p != nil {
		c.sortedBlocks.Store(p)
	}
	for i := range r.colVals {
		for v, n := range r.colVals[i] {
			c.colVals[i][v] = n
		}
	}
	return c
}

// CloneCOW returns a copy-on-write clone: relations named in rels are
// deep-copied (and therefore safely mutable on the clone), every other
// relation is shared by pointer with the receiver. The clone's shared
// relations must not be mutated — the intended use is a versioned store
// that publishes immutable snapshots and pays only for the relation a
// write touches. Names in rels that are not declared are ignored.
func (d *Database) CloneCOW(rels ...string) *Database {
	c := New()
	c.relNames = append([]string(nil), d.relNames...)
	copied := make(map[string]bool, len(rels))
	for _, name := range rels {
		copied[name] = true
	}
	for name, r := range d.rels {
		if copied[name] {
			c.rels[name] = r.clone()
		} else {
			c.rels[name] = r
		}
	}
	return c
}

// NumRepairs returns the number of repairs (the product of all block
// sizes) as a float64; it may overflow to +Inf for adversarial inputs.
// The result is memoized until the next write.
func (d *Database) NumRepairs() float64 {
	if p := d.numRepairs.Load(); p != nil {
		return *p
	}
	n := 1.0
	for _, r := range d.rels {
		for _, b := range r.blocks {
			n *= float64(len(b))
			if math.IsInf(n, 1) {
				break
			}
		}
	}
	d.numRepairs.Store(&n)
	return n
}

// Repairs enumerates the repairs of the database restricted to the given
// relation names (nil means all relations). For every repair it calls fn;
// enumeration stops early when fn returns false. Restricting to the
// relations a query mentions is sound for CERTAINTY because a repair's
// content on other relations cannot affect the query.
func (d *Database) Repairs(rels []string, fn func(repair *Database) bool) {
	if rels == nil {
		rels = d.relNames
	}
	// Gather blocks of the restricted relations.
	type blockRef struct {
		rel   string
		facts []Fact
	}
	var blocks []blockRef
	repair := New()
	for _, name := range rels {
		r, ok := d.rels[name]
		if !ok {
			continue
		}
		repair.MustDeclare(name, r.Arity, r.Key)
		for _, bk := range r.sortedBlockKeys() {
			blocks = append(blocks, blockRef{rel: name, facts: r.blocks[bk]})
		}
	}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(blocks) {
			return fn(repair)
		}
		b := blocks[i]
		for _, f := range b.facts {
			repair.MustInsert(f)
			cont := rec(i + 1)
			repair.remove(f)
			if !cont {
				return false
			}
		}
		return true
	}
	rec(0)
}

// Remove deletes a fact if present. All indexes — blocks, the sorted
// block-key list, and the per-column value counts — stay exact, so a
// database that inserts and removes facts is indistinguishable from one
// built directly from the surviving facts.
func (d *Database) Remove(f Fact) { d.remove(f) }

// remove deletes a fact; internal support for repair enumeration.
func (d *Database) remove(f Fact) {
	r, ok := d.rels[f.Rel]
	if !ok {
		return
	}
	tk := tupleKey(f.Args)
	if _, found := r.facts[tk]; !found {
		return
	}
	d.invalidate()
	delete(r.facts, tk)
	bk := tupleKey(f.Args[:r.Key])
	b := r.blocks[bk]
	for i := range b {
		if b[i].Equal(f) {
			b = append(b[:i], b[i+1:]...)
			break
		}
	}
	if len(b) == 0 {
		delete(r.blocks, bk)
		for i := range r.blockKeys {
			if r.blockKeys[i] == bk {
				r.blockKeys = append(r.blockKeys[:i], r.blockKeys[i+1:]...)
				break
			}
		}
		r.sortedBlocks.Store(nil)
	} else {
		r.blocks[bk] = b
	}
	for i, v := range f.Args {
		if r.colVals[i][v]--; r.colVals[i][v] <= 0 {
			delete(r.colVals[i], v)
		}
	}
}

// String renders the database as fact lines grouped by relation, in
// the syntax parse.Database reads.
func (d *Database) String() string {
	var b strings.Builder
	for _, name := range d.relNames {
		key := d.rels[name].Key
		for _, f := range d.Facts(name) {
			b.WriteString(FormatFact(f, key))
			b.WriteByte('\n')
		}
	}
	return b.String()
}
