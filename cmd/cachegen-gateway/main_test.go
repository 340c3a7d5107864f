package main

import (
	"reflect"
	"testing"
)

// TestParseTenants: weights default to 1, names and weights are
// trimmed, and empty names, bad or non-positive weights and an empty
// list are rejected.
func TestParseTenants(t *testing.T) {
	got, err := parseTenants(" gold:4 , silver: 2,bronze ,")
	if err != nil {
		t.Fatal(err)
	}
	want := []tenantSpec{{"gold", 4}, {"silver", 2}, {"bronze", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseTenants = %+v, want %+v", got, want)
	}

	for _, bad := range []string{
		"", " , ", // no tenants
		":3", " :1,gold", // empty name
		"gold:x", "gold:", "gold:1.5", // unparsable weight
		"gold:0", "gold:-2", // non-positive weight
	} {
		if specs, err := parseTenants(bad); err == nil {
			t.Errorf("parseTenants(%q) = %+v, want an error", bad, specs)
		}
	}
}
