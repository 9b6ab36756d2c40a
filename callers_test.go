package chebymc_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageHasACaller guards against packages no
// production code reaches: each internal/... package must be imported by
// at least one non-test file of this module outside the package itself.
// Test-helper packages (named *test, e.g. internal/mc/mctest) are exempt.
// Nested modules (directories with their own go.mod) are not this module
// and neither count as importers nor get checked.
func TestEveryInternalPackageHasACaller(t *testing.T) {
	const module = "chebymc"
	pkgs := map[string]bool{}          // import paths with a non-test .go file
	importers := map[string][]string{} // import path → importing dirs
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			// The go tool ignores ., _ and testdata directories.
			name := d.Name()
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			pkgs[module+"/"+dir] = true
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			importers[p] = append(importers[p], dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("found no internal packages; is the test running from the module root?")
	}
	var orphans []string
	for p := range pkgs {
		if strings.HasSuffix(p, "test") {
			continue
		}
		self := strings.TrimPrefix(p, module+"/")
		called := false
		for _, dir := range importers[p] {
			if dir != self {
				called = true
				break
			}
		}
		if !called {
			orphans = append(orphans, p)
		}
	}
	sort.Strings(orphans)
	for _, p := range orphans {
		t.Errorf("%s has no importer among the module's non-test files", p)
	}
}
