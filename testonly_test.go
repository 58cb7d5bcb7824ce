package repro

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

// testOnlyAllowed names the exported functions and methods that may stay
// in program files although only tests call them, keyed as the guard
// prints them (Recv.Name, or Name for a function), each with its reason.
var testOnlyAllowed = map[string]string{
	"Store.HasLiked":            "pinned by the differential oracle's graphStore interface",
	"Store.ActivitySince":       "pinned by the differential oracle's graphStore interface",
	"Store.OwnerOf":             "pinned by the differential oracle's graphStore interface",
	"Store.FriendCount":         "pinned by the differential oracle's graphStore interface",
	"Store.AreFriends":          "pinned by the differential oracle's graphStore interface",
	"SynchroTrap.GroupCount":    "read by the defense differential test",
	"AllocMeter.SetSampleEvery": "AllocMeter is to be replaced by a layer meter (ROADMAP item 1)",
	"Store.ShardCount":          "test seam: a test picks IDs that land on distinct shards",
	"Store.AddLikeBatch":        "pinned by an allocation gate and a benchmark",
	"TestData":                  "analysistest's helper for the analyzer golden tests",
	"StoreError.Unwrap":         "error-chain method, called by errors.Is and errors.As",
	"statusWriter.Unwrap":       "called by http.ResponseController",
}

// TestNoTestOnlyExports fails on any exported function or method in a
// program file whose name no program file references: code only tests
// reach belongs in a _test.go file, or nowhere. The check goes by name,
// so any use of a method's name outside tests keeps the method.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct{ key, pos string }
	var decls []decl
	used := make(map[string]bool) // identifiers program files reference
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
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
		declNames := make(map[*ast.Ident]bool)
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				declNames[fn.Name] = true
				if fn.Name.IsExported() {
					decls = append(decls, decl{funcKey(fn), fset.Position(fn.Pos()).String()})
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	flagged := make(map[string]bool)
	for _, d := range decls {
		if used[d.key[strings.LastIndex(d.key, ".")+1:]] {
			continue
		}
		flagged[d.key] = true
		if testOnlyAllowed[d.key] == "" {
			bad = append(bad, d.key+" ("+d.pos+")")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("exported %s is referenced only from _test.go files: move it into a test file, delete it, or allowlist it with a reason", b)
	}
	for key := range testOnlyAllowed {
		if !flagged[key] {
			t.Errorf("allowlisted %s is gone or has a caller outside tests: drop it from testOnlyAllowed", key)
		}
	}
}

// funcKey names a function declaration as Recv.Name, or Name for a plain
// function.
func funcKey(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}
