package flowref

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnlyBenchImports keeps production code off the reference solvers:
// among the module's non-test Go files, only internal/bench's (the E11
// ablation) may import this package.
func TestOnlyBenchImports(t *testing.T) {
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root: %v", err)
	}
	const self = "mpss/internal/flow/flowref"
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == self && filepath.Dir(rel) != filepath.Join("internal", "bench") {
				t.Errorf("%s imports %s; only internal/bench and tests may", rel, self)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
