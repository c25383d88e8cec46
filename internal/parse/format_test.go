package parse

import (
	"testing"

	"cqa/internal/db"
)

func TestFormatDatabaseRoundTrip(t *testing.T) {
	src := "R(a | 1)\nR(b | 2)\nS('x y' | 'has space', plain)\nT(k)\n"
	d := MustDatabase(src)
	out, err := FormatRelations(d, d.RelationNames())
	if err != nil {
		t.Fatal(err)
	}
	back, err := Database(out)
	if err != nil {
		t.Fatalf("rendered output does not parse: %v\n%s", err, out)
	}
	if got, want := back.String(), d.String(); got != want {
		t.Fatalf("round trip changed content:\n%s\nvs\n%s", got, want)
	}
	// Signatures survive too.
	for _, name := range d.RelationNames() {
		a, b := d.Relation(name), back.Relation(name)
		if a.Arity != b.Arity || a.Key != b.Key {
			t.Fatalf("%s signature changed: [%d,%d] vs [%d,%d]", name, a.Arity, a.Key, b.Arity, b.Key)
		}
	}
}

func TestFormatConstRejectsUnquotable(t *testing.T) {
	if _, err := FormatFact(db.F("R", "a'b", "c"), 1); err == nil {
		t.Fatal("embedded quote must be rejected")
	}
	if _, err := FormatFact(db.F("R", "", "new\nline"), 1); err == nil {
		t.Fatal("embedded newline must be rejected")
	}
	line, err := FormatFact(db.F("R", "", "v"), 1)
	if err != nil || line != "R('' | v)" {
		t.Fatalf("empty constant: %q, %v", line, err)
	}
}
