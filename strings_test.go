package churnreg_test

import (
	"testing"

	"churnreg"
)

func TestStringTableInternAndLookup(t *testing.T) {
	tab := churnreg.NewStringTable()
	a := tab.Intern("hello")
	b := tab.Intern("world")
	if a == b {
		t.Fatal("distinct strings interned to the same value")
	}
	if again := tab.Intern("hello"); again != a {
		t.Fatal("re-interning changed the value")
	}
	if s, ok := tab.Lookup(a); !ok || s != "hello" {
		t.Fatalf("Lookup(%d) = %q, %v", a, s, ok)
	}
	if _, ok := tab.Lookup(999); ok {
		t.Fatal("lookup of unknown value succeeded")
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
}

func TestSimClusterStringRoundTrip(t *testing.T) {
	c, err := churnreg.NewSimCluster(churnreg.WithN(8), churnreg.WithDelta(5))
	if err != nil {
		t.Fatal(err)
	}
	tab := churnreg.NewStringTable()
	if err := c.WriteString(tab, "deploying v2"); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadString(tab)
	if err != nil {
		t.Fatal(err)
	}
	if got != "deploying v2" {
		t.Fatalf("ReadString = %q", got)
	}
	// Reading the initial value (never interned) reports a clear error.
	c2, err := churnreg.NewSimCluster(churnreg.WithN(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.ReadString(tab); err == nil {
		t.Fatal("uninterned initial value resolved")
	}
}
