package wikistale_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// testOnlyAllowed names exported functions and methods under internal/
// that no non-test code calls but that stay, each with its reason.
var testOnlyAllowed = map[string]string{
	// Kept helpers.
	"NormalizeTransaction": "apriori: the assocrules reference buildTaggedReference calls it, and reference implementations stay",
	"BuildTransactions":    "assocrules: feeds BenchmarkMineApriori, which the CI train-bench gate runs",
	"TrainThreshold":       "baseline: tests in other packages use it as a helper",
	"Covers":               "correlation and seasonal Predictor: tests in other packages use it as a helper",
	"Remaining":            "ingest.Stream: tests in other packages use it as a helper",
	"NumWindows":           "predict.Batch: tests in other packages use it as a helper",

	// Methods that satisfy standard-library interfaces, called through them.
	"String":        "fmt.Stringer",
	"MarshalText":   "encoding.TextMarshaler",
	"UnmarshalText": "encoding.TextUnmarshaler",
}

// TestNoTestOnlyExports fails on any exported function or method declared
// under internal/ whose name occurs in no non-test Go file of the tree
// (internal/, cmd/, examples/, bench/ and the root package) other than as
// the name of a declared function. Such a declaration is production API
// that only tests call: delete it, or move it into the test that needs it.
//
// The check matches identifiers by name, not by type: a dead method that
// shares its name with a used one (say, a second Reset) goes unnoticed.
// It never fails on a function that production code calls, since the call
// is an occurrence of the name.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}
	type decl struct{ name, pos string }
	var decls []decl
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
		isDecl := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			isDecl[fn.Name] = true
			if fn.Name.IsExported() && strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				decls = append(decls, decl{fn.Name.Name, fset.Position(fn.Pos()).String()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !isDecl[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.name] = true
		if uses[d.name] == 0 && testOnlyAllowed[d.name] == "" {
			t.Errorf("%s: %s has no caller outside tests", d.pos, d.name)
		}
	}
	for name := range testOnlyAllowed {
		if !declared[name] {
			t.Errorf("allowlist entry %s names no declaration under internal/", name)
		}
	}
}
