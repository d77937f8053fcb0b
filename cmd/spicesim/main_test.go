package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunBasic(t *testing.T) {
	for _, algo := range []string{"mst", "steiner", "ert", "ldrg"} {
		if err := run("", 6, 2, algo, 500, false, "trap", "", "", false); err != nil {
			t.Errorf("algo %s: %v", algo, err)
		}
	}
}

func TestRunMethods(t *testing.T) {
	for _, m := range []string{"trap", "be"} {
		if err := run("", 5, 2, "mst", 500, false, m, "", "", false); err != nil {
			t.Errorf("method %s: %v", m, err)
		}
	}
}

func TestRunInductance(t *testing.T) {
	if err := run("", 5, 2, "mst", 1000, true, "be", "", "", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunOutputs(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "w.csv")
	deck := filepath.Join(dir, "c.cir")
	if err := run("", 5, 2, "mst", 500, false, "trap", csv, deck, false); err != nil {
		t.Fatal(err)
	}
	csvData, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csvData), "time_s,") {
		t.Error("CSV header missing")
	}
	deckData, err := os.ReadFile(deck)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(deckData), ".END") {
		t.Error("deck missing .END")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", 0, 0, "mst", 500, false, "trap", "", "", false); err == nil {
		t.Error("no net source must fail")
	}
	if err := run("", 5, 2, "hyperloop", 500, false, "trap", "", "", false); err == nil {
		t.Error("unknown topology must fail")
	}
	for _, m := range []string{"adaptive", "foo", ""} {
		if err := run("", 5, 2, "mst", 500, false, m, "", "", false); err == nil {
			t.Errorf("unknown method %q must fail", m)
		}
	}
}

func TestRunAC(t *testing.T) {
	if err := run("", 5, 2, "mst", 500, false, "trap", "", "", true); err != nil {
		t.Fatal(err)
	}
}
