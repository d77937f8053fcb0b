package analysis

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fakeGo installs a shim `go` binary at the front of PATH that prints
// stdout, prints stderr, and exits with the given code — letting the
// tests drive goList's error paths (malformed JSON, command failure,
// per-package Error fields) hermetically.
func fakeGo(t *testing.T, stdout, stderr string, exit int) {
	t.Helper()
	dir := t.TempDir()
	script := "#!/bin/sh\n"
	if stdout != "" {
		script += "cat <<'EOF'\n" + stdout + "\nEOF\n"
	}
	if stderr != "" {
		script += "cat >&2 <<'EOF'\n" + stderr + "\nEOF\n"
	}
	script += "exit " + strconv.Itoa(exit) + "\n"
	if err := os.WriteFile(filepath.Join(dir, "go"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	t.Setenv("PATH", dir+string(os.PathListSeparator)+os.Getenv("PATH"))
}

func TestLoadMalformedGoListJSON(t *testing.T) {
	fakeGo(t, `{"ImportPath": "x", "GoFiles": [`, "", 0)
	_, err := NewLoader().Load("", "./...")
	if err == nil {
		t.Fatal("expected an error for malformed go list output")
	}
	if !strings.Contains(err.Error(), "decoding go list output") {
		t.Errorf("error %q does not name the decode failure", err)
	}
}

func TestLoadGoListCommandFailure(t *testing.T) {
	fakeGo(t, "", "go: pattern matched no packages", 1)
	_, err := NewLoader().Load("", "./nonexistent")
	if err == nil {
		t.Fatal("expected an error when go list exits non-zero")
	}
	if !strings.Contains(err.Error(), "go list") || !strings.Contains(err.Error(), "matched no packages") {
		t.Errorf("error %q should carry go list's stderr", err)
	}
}

func TestLoadReportsPackageError(t *testing.T) {
	// go list emits a package with an Error field (and exit 0) for, e.g.,
	// an import cycle discovered while loading.
	fakeGo(t, `{"ImportPath": "cyc/a", "Error": {"Err": "import cycle not allowed: cyc/a -> cyc/b -> cyc/a"}}`, "", 0)
	_, err := NewLoader().Load("", "cyc/a")
	if err == nil {
		t.Fatal("expected an error for a package with an Error field")
	}
	if !strings.Contains(err.Error(), "import cycle") {
		t.Errorf("error %q should surface the package error", err)
	}
}

func TestLoadImportCycleRealModule(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the real go tool")
	}
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module cyc\n\ngo 1.22\n")
	write("a/a.go", "package a\n\nimport \"cyc/b\"\n\nvar _ = b.B\n")
	write("b/b.go", "package b\n\nimport \"cyc/a\"\n\nvar _ = a.A\n")
	_, err := NewLoader().Load(dir, "./...")
	if err == nil {
		t.Fatal("expected an error for an import cycle")
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Errorf("error %q should mention the cycle", err)
	}
}

func TestLoadMissingPackageDir(t *testing.T) {
	// go list output referencing a directory whose files are gone: the
	// parse step must fail cleanly, not panic.
	fakeGo(t, `{"ImportPath": "ghost", "Dir": "/nonexistent-dir-for-test", "GoFiles": ["ghost.go"]}`, "", 0)
	_, err := NewLoader().Load("", "ghost")
	if err == nil {
		t.Fatal("expected an error for a missing package directory")
	}
	if !strings.Contains(err.Error(), "parsing") {
		t.Errorf("error %q should come from the parse step", err)
	}
}

func TestLoadDependencyOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks real repository packages")
	}
	// nontree/internal/elmore imports nontree/internal/rc but sorts before
	// it alphabetically, so plain `go list` order would analyze the
	// importer first; Load must yield rc before elmore.
	pkgs, err := NewLoader().Load("", "nontree/internal/elmore", "nontree/internal/rc")
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, p := range pkgs {
		pos[p.Path] = i
	}
	rc, okRC := pos["nontree/internal/rc"]
	el, okEl := pos["nontree/internal/elmore"]
	if !okRC || !okEl {
		t.Fatalf("expected both packages loaded, got %v", pos)
	}
	if rc > el {
		t.Fatalf("rc (index %d) must precede its importer elmore (index %d)", rc, el)
	}
}

func TestCheckDirEmpty(t *testing.T) {
	_, err := NewLoader().CheckDir(t.TempDir(), "empty")
	if err == nil || !strings.Contains(err.Error(), "no Go files") {
		t.Fatalf("CheckDir on an empty dir: got %v, want a no-Go-files error", err)
	}
}

func TestCheckDirTypeError(t *testing.T) {
	dir := t.TempDir()
	src := "package bad\n\nvar x int = \"not an int\"\n"
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewLoader().CheckDir(dir, "bad")
	if err == nil || !strings.Contains(err.Error(), "type-checking") {
		t.Fatalf("CheckDir on untypeable source: got %v, want a type-check error", err)
	}
}
