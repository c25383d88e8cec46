package db

import (
	"strings"
	"unicode"
)

// The fact syntax every printer of facts shares, and the one the parser
// reads back: a constant is bare when it is a non-empty run of
// identifier runes and single-quoted otherwise, so A('') and A('x y')
// round-trip. The syntax has no escapes: a constant holding a quote or
// a line break has no rendering that parses back.

// IdentRune reports whether r may appear in a bare identifier or
// constant.
func IdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '·' || r == '⊥'
}

// QuoteConst renders constant v in the fact syntax. ok is false when v
// holds a quote or a line break; v is then quoted anyway, for display,
// but the result does not parse back to v.
func QuoteConst(v string) (s string, ok bool) {
	if v != "" && !strings.ContainsFunc(v, func(r rune) bool { return !IdentRune(r) }) {
		return v, true
	}
	return "'" + v + "'", !strings.ContainsAny(v, "'\n\r")
}

// FormatFact renders f in the fact syntax with its first key positions
// before the bar, R(a, b | c). A key of 0, or one covering every
// position, prints no bar.
func FormatFact(f Fact, key int) string {
	var b strings.Builder
	b.WriteString(f.Rel)
	b.WriteByte('(')
	for i, a := range f.Args {
		if i > 0 {
			if i == key {
				b.WriteString(" | ")
			} else {
				b.WriteString(", ")
			}
		}
		s, _ := QuoteConst(a)
		b.WriteString(s)
	}
	b.WriteByte(')')
	return b.String()
}
