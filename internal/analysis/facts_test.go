package analysis

import "testing"

type testFact struct {
	Value string `json:"value"`
}

func TestFactsExportImport(t *testing.T) {
	f := NewFacts()
	if err := f.Export("pkg/a.X", testFact{Value: "first"}); err != nil {
		t.Fatal(err)
	}
	var got testFact
	if !f.Import("pkg/a.X", &got) || got.Value != "first" {
		t.Fatalf("Import = %+v, want first", got)
	}
	if f.Import("pkg/a.Y", &got) {
		t.Error("Import of a missing key must report false")
	}
	// Re-export overwrites.
	if err := f.Export("pkg/a.X", testFact{Value: "second"}); err != nil {
		t.Fatal(err)
	}
	if !f.Import("pkg/a.X", &got) || got.Value != "second" {
		t.Fatalf("after overwrite, Import = %+v, want second", got)
	}
	if keys := f.KeysWithPrefix(""); len(keys) != 1 {
		t.Errorf("keys = %v, want only pkg/a.X", keys)
	}
}
