// Package parse implements the concrete text syntax used by the command
// line tools, examples, and tests.
//
// Query syntax (one query per string):
//
//	R(x | y), !S(y | x)
//
// Literals are separated by commas (an optional `&` is also accepted).
// `!` or `not` negates an atom. Inside an atom, the terms before the `|`
// are the primary-key positions; an atom without `|` is all-key.
// Identifiers starting with a lowercase letter are variables; single-quoted
// strings ('c') and numbers are constants.
//
// Database syntax (one fact per line):
//
//	R(a | b)
//	S(b | a)    # trailing comments are allowed
//
// All fact arguments are constants and need no quoting. Signatures are
// inferred from the first fact of each relation and must stay consistent.
package parse

import (
	"fmt"
	"strings"
	"unicode"

	"cqa/internal/db"
	"cqa/internal/schema"
)

type lexer struct {
	src []rune
	pos int
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) && unicode.IsSpace(l.src[l.pos]) {
		l.pos++
	}
}

func (l *lexer) eof() bool {
	l.skipSpace()
	return l.pos >= len(l.src)
}

func (l *lexer) peek() rune {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) consume(r rune) bool {
	if l.peek() == r {
		l.pos++
		return true
	}
	return false
}

func (l *lexer) expect(r rune) error {
	if !l.consume(r) {
		return fmt.Errorf("parse: expected %q at offset %d", r, l.pos)
	}
	return nil
}

// ident reads an identifier or number; returns "" when none is present.
func (l *lexer) ident() string {
	l.skipSpace()
	start := l.pos
	for l.pos < len(l.src) && db.IdentRune(l.src[l.pos]) {
		l.pos++
	}
	return string(l.src[start:l.pos])
}

// quoted reads a single-quoted constant after the opening quote has been
// consumed.
func (l *lexer) quoted() (string, error) {
	start := l.pos
	for l.pos < len(l.src) {
		if l.src[l.pos] == '\'' {
			s := string(l.src[start:l.pos])
			l.pos++
			return s, nil
		}
		l.pos++
	}
	return "", fmt.Errorf("parse: unterminated quoted constant at offset %d", start)
}

func (l *lexer) term() (schema.Term, error) {
	if l.consume('\'') {
		v, err := l.quoted()
		if err != nil {
			return schema.Term{}, err
		}
		return schema.Const(v), nil
	}
	id := l.ident()
	if id == "" {
		return schema.Term{}, fmt.Errorf("parse: expected term at offset %d", l.pos)
	}
	first := []rune(id)[0]
	if unicode.IsLower(first) {
		return schema.Var(id), nil
	}
	// Digits and other non-lowercase identifiers are constants.
	return schema.Const(id), nil
}

// atom parses Rel(t1, ..., tk | tk+1, ..., tn).
func (l *lexer) atom() (schema.Atom, error) {
	rel := l.ident()
	if rel == "" {
		return schema.Atom{}, fmt.Errorf("parse: expected relation name at offset %d", l.pos)
	}
	first := []rune(rel)[0]
	if !unicode.IsUpper(first) {
		return schema.Atom{}, fmt.Errorf("parse: relation name %q must start with an uppercase letter", rel)
	}
	if err := l.expect('('); err != nil {
		return schema.Atom{}, err
	}
	var terms []schema.Term
	key := -1
	for {
		t, err := l.term()
		if err != nil {
			return schema.Atom{}, err
		}
		terms = append(terms, t)
		if l.consume(',') {
			continue
		}
		if l.consume('|') {
			if key != -1 {
				return schema.Atom{}, fmt.Errorf("parse: atom %s has two '|' separators", rel)
			}
			key = len(terms)
			continue
		}
		break
	}
	if err := l.expect(')'); err != nil {
		return schema.Atom{}, err
	}
	if key == -1 {
		key = len(terms) // all-key
	}
	return schema.Atom{Rel: rel, Key: key, Terms: terms}, nil
}

// Query parses a query string and validates it as sjfBCQ¬.
func Query(src string) (schema.Query, error) {
	l := &lexer{src: []rune(src)}
	var lits []schema.Literal
	for {
		neg := false
		if l.consume('!') {
			neg = true
		} else {
			// Allow the keyword form "not R(...)".
			save := l.pos
			if id := l.ident(); id == "not" {
				neg = true
			} else {
				l.pos = save
			}
		}
		a, err := l.atom()
		if err != nil {
			return schema.Query{}, err
		}
		lits = append(lits, schema.Literal{Neg: neg, Atom: a})
		if l.consume(',') || l.consume('&') {
			continue
		}
		break
	}
	if !l.eof() {
		return schema.Query{}, fmt.Errorf("parse: trailing input at offset %d", l.pos)
	}
	q := schema.Query{Lits: lits}
	if err := q.Validate(); err != nil {
		return schema.Query{}, err
	}
	return q, nil
}

// MustQuery parses a query and panics on error; for tests and examples.
func MustQuery(src string) schema.Query {
	q, err := Query(src)
	if err != nil {
		panic(err)
	}
	return q
}

// Database parses a multi-line database listing. Relation signatures are
// inferred from the facts; every argument is treated as a constant.
func Database(src string) (*db.Database, error) {
	d := db.New()
	for lineNo, line := range strings.Split(src, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		l := &lexer{src: []rune(line)}
		a, err := l.atom()
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
		if !l.eof() {
			return nil, fmt.Errorf("line %d: trailing input after fact", lineNo+1)
		}
		args := make([]string, len(a.Terms))
		for i, t := range a.Terms {
			args[i] = t.Name // variables in fact position are read as constants
		}
		if err := d.DeclareRelation(a.Rel, len(args), a.Key); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
		if err := d.Insert(db.Fact{Rel: a.Rel, Args: args}); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
	}
	return d, nil
}

// MustDatabase parses a database and panics on error; for tests and
// examples.
func MustDatabase(src string) *db.Database {
	d, err := Database(src)
	if err != nil {
		panic(err)
	}
	return d
}

// DeclareQueryRelations declares in d every relation that q mentions, so
// that empty relations are still known to the evaluator. Signatures must
// agree with any facts already inserted (see CheckQueryRelations).
func DeclareQueryRelations(d *db.Database, q schema.Query) error {
	if err := CheckQueryRelations(d, q); err != nil {
		return err
	}
	for _, a := range q.Atoms() {
		if err := d.DeclareRelation(a.Rel, a.Arity(), a.Key); err != nil {
			return err
		}
	}
	return nil
}

// CheckQueryRelations reports the first atom of q whose relation d
// stores under another signature. Evaluating such a query would index
// past the stored tuples, so every read of a stored database checks
// first; relations d does not know are fine (they are empty).
func CheckQueryRelations(d *db.Database, q schema.Query) error {
	for _, a := range q.Atoms() {
		if r := d.Relation(a.Rel); r != nil && (r.Arity != a.Arity() || r.Key != a.Key) {
			return fmt.Errorf("relation %s is stored with signature [%d, %d] but the query uses [%d, %d]",
				a.Rel, r.Arity, r.Key, a.Arity(), a.Key)
		}
	}
	return nil
}
