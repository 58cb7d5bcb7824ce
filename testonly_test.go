package repro

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed names the exported declarations that may stay in
// program files although only tests reach them, keyed as the guard
// prints them (package path, then Recv.Name or Name), each with its
// reason.
var testOnlyAllowed = map[string]string{
	"repro/internal/obs.AllocMeter.SetSampleEvery": "AllocMeter is to be replaced by a layer meter (ROADMAP item 1)",
}

// stdlibAsserted names the methods the standard library finds by type
// assertion on a value it holds as an interface: fmt's String and
// Error, errors' Unwrap, and the optional http.ResponseWriter
// interfaces that http.ResponseController and io.Copy look for.
var stdlibAsserted = []string{"String", "Error", "Unwrap", "Flush", "Hijack", "ReadFrom"}

// TestNoTestOnlyExports fails on any exported function, method,
// constant or package-level variable that a program file declares and
// no program file references: code only tests reach belongs in a
// _test.go file, or nowhere. perfbench, examples and cmd count as
// callers.
func TestNoTestOnlyExports(t *testing.T) {
	found, err := testOnlyExports(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range sortedKeys(found) {
		if testOnlyAllowed[key] == "" {
			t.Errorf("exported %s (%s) is referenced only from _test.go files: move it into a test file, delete it, or allowlist it with a reason", key, found[key])
		}
	}
	for key := range testOnlyAllowed {
		if _, ok := found[key]; !ok {
			t.Errorf("allowlisted %s is gone or has a caller outside tests: drop it from testOnlyAllowed", key)
		}
	}
}

// TestTestOnlyExportsFixture runs the guard on testdata/testonly, whose
// program and test files hold one case of each rule.
func TestTestOnlyExportsFixture(t *testing.T) {
	found, err := testOnlyExports(filepath.Join("testdata", "testonly"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fixture/store.OnlyTests", "fixture/store.Store.Page"}
	if got := sortedKeys(found); !reflect.DeepEqual(got, want) {
		t.Fatalf("flagged %v, want %v", got, want)
	}
}

// testOnlyExports type-checks the program (non-_test.go) files of every
// package under root, whose module path is module, and returns the
// exported functions, methods, constants and package-level variables
// that no program file references, keyed as testOnlyAllowed is, with
// their positions. Packages that import testing are test support, so
// their declarations are exempt.
//
// A method also counts as referenced when program code converts a value
// of its receiver type to an interface that declares the method, or
// when its name is one the standard library looks up by type assertion
// (stdlibAsserted). An interface's own methods are not checked.
func testOnlyExports(root, module string) (map[string]string, error) {
	fset := token.NewFileSet()
	files := make(map[string][]*ast.File) // by import path
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(p)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		ip := path.Join(module, filepath.ToSlash(rel))
		files[ip] = append(files[ip], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Imports of local packages resolve to the packages checked here, so
	// a declaration and every reference to it share one object. The
	// standard library comes from its export data (the gc importer asks
	// `go list -export` for it), which costs a fraction of checking its
	// source, the more so under the race detector.
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	std := importer.ForCompiler(fset, "gc", nil)
	checked := make(map[string]*types.Package)
	var imp importerFunc
	imp = func(ip string) (*types.Package, error) {
		if pkg, ok := checked[ip]; ok {
			return pkg, nil
		}
		if _, ok := files[ip]; !ok {
			return std.Import(ip)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(ip, fset, files[ip], info)
		if err != nil {
			return nil, err
		}
		checked[ip] = pkg
		return pkg, nil
	}
	for ip := range files {
		if _, err := imp(ip); err != nil {
			return nil, err
		}
	}

	used := make(map[types.Object]bool)
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		used[obj] = true
	}
	for _, pkgFiles := range files {
		for _, f := range pkgFiles {
			eachConversion(info, f, func(from types.Type, iface *types.Interface) {
				for i := 0; i < iface.NumMethods(); i++ {
					obj, _, _ := types.LookupFieldOrMethod(from, true, nil, iface.Method(i).Name())
					if fn, ok := obj.(*types.Func); ok {
						used[fn.Origin()] = true
					}
				}
			})
		}
	}

	found := make(map[string]string)
	for id, obj := range info.Defs {
		if obj == nil || !obj.Exported() || used[obj] || imports(obj.Pkg(), "testing") {
			continue
		}
		key := obj.Pkg().Path() + "."
		switch obj := obj.(type) {
		case *types.Func:
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
				if types.IsInterface(recv.Type()) || slices.Contains(stdlibAsserted, obj.Name()) {
					continue
				}
				named, _ := types.Unalias(derefType(recv.Type())).(*types.Named)
				key += named.Obj().Name() + "."
			}
		case *types.Const, *types.Var:
			if obj.Parent() != obj.Pkg().Scope() {
				continue
			}
		default:
			continue
		}
		found[key+id.Name] = fset.Position(obj.Pos()).String()
	}
	return found, nil
}

// eachConversion calls f for every implicit or explicit conversion in
// file of a value of non-interface type to an interface type: call
// arguments, assignments, typed var declarations, returns, composite
// literal elements, channel sends, map keys, comparisons and
// conversion expressions.
func eachConversion(info *types.Info, file *ast.File, f func(from types.Type, iface *types.Interface)) {
	conv := func(from, to types.Type) {
		if from == nil || to == nil || types.IsInterface(from) {
			return
		}
		if iface, ok := to.Underlying().(*types.Interface); ok {
			f(from, iface)
		}
	}
	convAll := func(exprs []ast.Expr, to func(i int) types.Type) {
		for i, from := range valueTypes(info, exprs) {
			conv(from, to(i))
		}
	}
	var stack []ast.Node // the enclosing nodes, for a return's signature
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CallExpr:
			fun := info.Types[n.Fun]
			if fun.IsType() {
				convAll(n.Args, func(int) types.Type { return fun.Type })
				break
			}
			if fun.Type == nil {
				break
			}
			sig, ok := fun.Type.Underlying().(*types.Signature)
			if !ok {
				break
			}
			params := sig.Params()
			spread := sig.Variadic() && !n.Ellipsis.IsValid() // trailing args fill the final ...T
			convAll(n.Args, func(i int) types.Type {
				if last := params.Len() - 1; spread && i >= last {
					return params.At(last).Type().(*types.Slice).Elem()
				}
				return params.At(i).Type()
			})
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				convAll(n.Rhs, func(i int) types.Type { return info.TypeOf(n.Lhs[i]) })
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				convAll(n.Values, func(int) types.Type { return info.TypeOf(n.Type) })
			}
		case *ast.ReturnStmt:
			var sig types.Type // of the innermost enclosing function
			for i := len(stack) - 2; sig == nil; i-- {
				switch fn := stack[i].(type) {
				case *ast.FuncDecl:
					sig = info.Defs[fn.Name].Type()
				case *ast.FuncLit:
					sig = info.TypeOf(fn)
				}
			}
			results := sig.(*types.Signature).Results()
			convAll(n.Results, func(i int) types.Type { return results.At(i).Type() })
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			for i, el := range n.Elts {
				var key ast.Expr
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					key, el = kv.Key, kv.Value
				}
				switch u := derefType(t).Underlying().(type) {
				case *types.Struct:
					if key == nil {
						conv(info.TypeOf(el), u.Field(i).Type())
					} else if field, ok := info.Uses[key.(*ast.Ident)]; ok {
						conv(info.TypeOf(el), field.Type())
					}
				case *types.Slice:
					conv(info.TypeOf(el), u.Elem())
				case *types.Array:
					conv(info.TypeOf(el), u.Elem())
				case *types.Map:
					conv(info.TypeOf(key), u.Key())
					conv(info.TypeOf(el), u.Elem())
				}
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				conv(info.TypeOf(n.Value), ch.Elem())
			}
		case *ast.IndexExpr:
			if m, ok := info.TypeOf(n.X).Underlying().(*types.Map); ok {
				conv(info.TypeOf(n.Index), m.Key())
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				x, y := info.TypeOf(n.X), info.TypeOf(n.Y)
				conv(x, y)
				conv(y, x)
			}
		}
		return true
	})
}

// valueTypes returns the types of the values exprs yield, expanding a
// lone multi-valued call.
func valueTypes(info *types.Info, exprs []ast.Expr) []types.Type {
	if len(exprs) == 1 {
		if tuple, ok := info.TypeOf(exprs[0]).(*types.Tuple); ok {
			out := make([]types.Type, tuple.Len())
			for i := range out {
				out[i] = tuple.At(i).Type()
			}
			return out
		}
	}
	out := make([]types.Type, len(exprs))
	for i, e := range exprs {
		out[i] = info.TypeOf(e)
	}
	return out
}

// derefType returns the element type of a pointer, or t itself.
func derefType(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// imports reports whether pkg imports the package at path.
func imports(pkg *types.Package, path string) bool {
	for _, p := range pkg.Imports() {
		if p.Path() == path {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
