package ir

import "testing"

func TestOpTable(t *testing.T) {
	m := NewModule("m")
	b := NewBuilder(m.NewFunction("top"))
	p := b.Port("x", 8)
	q := b.Op(KindNot, 8, p)

	tab := NewOpTable[int](m)
	if v, ok := tab.Lookup(p); ok || v != 0 {
		t.Fatalf("unset op: Lookup = %d, %v; want 0, false", v, ok)
	}
	tab.Set(p, 7)
	if v, ok := tab.Lookup(p); !ok || v != 7 {
		t.Fatalf("set op: Lookup = %d, %v; want 7, true", v, ok)
	}
	if got := tab.Get(q); got != 0 {
		t.Fatalf("unset op: Get = %d, want 0", got)
	}

	// An op of another module with the same ID is a different key.
	other := NewModule("other")
	foreign := NewBuilder(other.NewFunction("top")).Port("y", 8)
	if foreign.ID != p.ID {
		t.Fatalf("test setup: foreign ID %d, want %d", foreign.ID, p.ID)
	}
	if v, ok := tab.Lookup(foreign); ok || v != 0 {
		t.Fatalf("foreign op with a stored ID: Lookup = %d, %v; want 0, false", v, ok)
	}

	// An op created after the table was sized misses, then grows it.
	late := b.Op(KindNot, 8, q)
	if late.ID < len(tab.ent) {
		t.Fatalf("test setup: op %d inside the table's %d entries", late.ID, len(tab.ent))
	}
	if _, ok := tab.Lookup(late); ok {
		t.Fatal("op past the table's end: Lookup hit")
	}
	tab.Set(late, 9)
	if v, ok := tab.Lookup(late); !ok || v != 9 {
		t.Fatalf("grown table: Lookup = %d, %v; want 9, true", v, ok)
	}
	if v, ok := tab.Lookup(p); !ok || v != 7 {
		t.Fatalf("growth lost an entry: Lookup = %d, %v; want 7, true", v, ok)
	}

	// The zero table is empty and grows on Set.
	var zero OpTable[string]
	if _, ok := zero.Lookup(p); ok {
		t.Fatal("zero table: Lookup hit")
	}
	zero.Set(q, "q")
	if zero.Get(q) != "q" {
		t.Fatalf("zero table after Set: Get = %q", zero.Get(q))
	}
}
