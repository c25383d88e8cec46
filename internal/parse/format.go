package parse

import (
	"fmt"
	"sort"
	"strings"

	"cqa/internal/db"
)

// Rendering the database syntax back out: the inverse of Database, used
// by the shard router to re-render a partitioned write batch per owner
// shard, and by the facts-export endpoint. Rendering every relation
// with FormatRelations and parsing it back is the identity on database
// content (facts and signatures).

// FormatFact renders one fact as a database line, key positions before
// the bar: R(a, b | c). An all-key fact has no bar. Constants the syntax
// cannot express (embedded quote or line break — it has no escapes) are
// rejected.
func FormatFact(f db.Fact, key int) (string, error) {
	for _, a := range f.Args {
		if _, ok := db.QuoteConst(a); !ok {
			return "", fmt.Errorf("parse: constant %q cannot be rendered in the database syntax", a)
		}
	}
	return db.FormatFact(f, key), nil
}

// FormatRelations renders the named relations of d as a multi-line
// database listing, relations sorted by name and facts in insertion
// order, that Database parses back to equal content; names d does not
// know are skipped. Relations without facts cannot be expressed in the
// syntax (signatures are inferred from facts), so callers that need
// them must carry signatures separately.
func FormatRelations(d *db.Database, names []string) (string, error) {
	names = append([]string(nil), names...)
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		r := d.Relation(name)
		if r == nil {
			continue
		}
		for _, f := range d.Facts(name) {
			line, err := FormatFact(f, r.Key)
			if err != nil {
				return "", err
			}
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String(), nil
}
