package crashresist

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoTestOnlyExports keeps internal/ free of exports that only tests
// call. Every exported top-level func, method and type declared in a
// non-test file under internal/ must be named somewhere else in the
// non-test files of this module or of crbench/ (its own module, which
// imports internal/ packages): in another file, or by a caller in its own
// file. The check goes by name, so a dead export that shares its name with
// a live identifier passes.
func TestNoTestOnlyExports(t *testing.T) {
	type export struct{ name, pos string }
	var exports []export
	uses := make(map[string]int) // identifier -> occurrences, declarations included
	sawCrbench := false
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		sawCrbench = sawCrbench || strings.HasPrefix(filepath.ToSlash(path), "crbench/")
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		add := func(id *ast.Ident) {
			if id.IsExported() {
				exports = append(exports, export{id.Name, fset.Position(id.Pos()).String()})
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				add(decl.Name)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						add(ts.Name)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(exports) == 0 || !sawCrbench {
		t.Fatalf("walk found %d internal exports, crbench/ seen: %v; run from the module root", len(exports), sawCrbench)
	}

	var unused []string
	for _, e := range exports {
		// The declaration itself is one occurrence.
		if uses[e.name] < 2 {
			unused = append(unused, e.pos+": "+e.name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but no non-test code names it; delete it, or move it to an export_test.go", u)
	}
}
