// Package tokenflow implements the collusionvet analyzer that guards
// the paper's core token-hygiene lesson: bearer access tokens leak
// because they ride in URLs and get echoed into logs and error strings
// (PAPER.md §3 — collusion networks harvest exactly such leaked
// tokens). The analyzer flags token-bearing values flowing into
// formatting/logging sinks:
//
//   - any argument of fmt.Errorf/Sprintf/Printf/..., log.*, or
//     errors.New whose name marks it as a credential (token, secret,
//     appsecret_proof, password, ...);
//   - any url.URL / url.Values argument — a full URL is presumed to
//     carry credentials in its query or fragment (the Figure 3 implicit
//     flow puts access_token in the fragment), as are url.URL.Fragment /
//     RawQuery reads and url.URL.String() results;
//   - values locally derived from the above (assignment taint, string
//     concatenation, Values.Get("access_token") and friends, and
//     fmt.Sprintf-style wrappers that forward their arguments into a
//     value-returning formatter);
//   - span attribute/event setters in internal/obs (Span.SetAttr,
//     Span.Event) — traces are exported over /debug/traces, so they are
//     a diagnostic channel like any log line.
//
// Taint crosses package boundaries through the facts pipeline
// (internal/analysis FactSet, see facts.go): analyzing a package
// exports ReturnsCredential / ParamIsCredential / Redacts / CredField
// facts for its functions and struct fields, and call sites in
// importing packages consult those facts — so a credential-returning
// helper is recognized by every caller no matter how innocently it is
// named, with zero annotations.
//
// Escape hatch: helpers that mask their input may be annotated
// //collusionvet:redacts (everything in repro/internal/redact is
// trusted implicitly); their call results are clean, and sinks inside
// their bodies are not checked. The annotation is exported as a Redacts
// fact, so it is honored from other packages too.
package tokenflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the bearer-token leak checker.
var Analyzer = &analysis.Analyzer{
	Name: "tokenflow",
	Doc: "flag bearer tokens and full URLs flowing into fmt/log/error sinks; " +
		"redact via repro/internal/redact or a //collusionvet:redacts helper",
	Run: run,
}

// sinkFuncs are the formatting/printing entry points checked, keyed by
// package path then function/method name (log methods cover *log.Logger
// too, since the method names coincide).
var sinkFuncs = map[string]map[string]bool{
	"fmt": {
		"Errorf": true, "Sprintf": true, "Sprint": true, "Sprintln": true,
		"Printf": true, "Print": true, "Println": true,
		"Fprintf": true, "Fprint": true, "Fprintln": true,
		"Appendf": true, "Append": true, "Appendln": true,
	},
	"log": {
		"Printf": true, "Print": true, "Println": true,
		"Fatalf": true, "Fatal": true, "Fatalln": true,
		"Panicf": true, "Panic": true, "Panicln": true,
		"Output": true,
	},
	"errors": {"New": true},
}

// valueFormatters are the fmt entry points that *return* their
// formatted output instead of (only) writing it somewhere; they
// propagate taint from arguments to result, which is how variadic
// forwarding wrappers (func attr(f string, a ...any) string { return
// fmt.Sprintf(f, a...) }) are tracked.
var valueFormatters = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
	"Appendf": true, "Append": true, "Appendln": true,
}

// credWords mark a name's final segment as credential-bearing.
var credWords = map[string]bool{
	"token": true, "accesstoken": true, "tok": true,
	"secret": true, "secrets": true, "proof": true,
	"password": true, "passwd": true, "bearer": true, "apikey": true,
}

type checker struct {
	pass    *analysis.Pass
	decls   map[*types.Func]*ast.FuncDecl
	tainted map[types.Object]bool // locals assigned from tainted exprs

	// Per-function summaries, computed to a fixed point over the whole
	// package before reporting, then exported as facts:
	retCred   map[*types.Func]map[int]bool // result indices carrying credentials
	parCred   map[*types.Func]map[int]bool // credential-declared / pointer-filled params
	propag    map[*types.Func]map[int]bool // params forwarded into string results
	redactors map[*types.Func]bool         // annotated or redact-package helpers
	fields    map[*types.Var]bool          // package structs' credential fields
	params    map[*types.Func]map[types.Object]int
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:      pass,
		decls:     analysis.FuncDecls(pass),
		tainted:   make(map[types.Object]bool),
		retCred:   make(map[*types.Func]map[int]bool),
		parCred:   make(map[*types.Func]map[int]bool),
		propag:    make(map[*types.Func]map[int]bool),
		redactors: make(map[*types.Func]bool),
		fields:    make(map[*types.Var]bool),
		params:    make(map[*types.Func]map[types.Object]int),
	}
	c.seed()

	// Fixed point: taint discovered in one function's body (a tainted
	// return, a credential written into a field) feeds the summaries
	// its callers' analysis consults, until nothing changes.
	funcs := c.analyzedFuncs()
	for range 8 {
		changed := false
		for _, p := range funcs {
			c.propagate(p.fn, p.fd.Body)
			if c.summarize(p.fn, p.fd) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	c.exportFacts()

	for _, p := range funcs {
		c.checkSinks(p.fd.Body)
	}
	return nil
}

type funcDecl struct {
	fn *types.Func
	fd *ast.FuncDecl
}

// analyzedFuncs returns the production functions subject to taint
// analysis in deterministic (file, position) order — test files format
// tokens freely, and a redactor's own formatting is the masking.
func (c *checker) analyzedFuncs() []funcDecl {
	var out []funcDecl
	for _, file := range c.pass.Files {
		if analysis.IsTestFile(c.pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || c.redactors[fn] {
				continue
			}
			out = append(out, funcDecl{fn, fd})
		}
	}
	return out
}

// seed installs the definition-site heuristics as initial summaries:
// redactors (annotation or .../redact package path), credential-named
// functions, credential-named parameters, and credential-named string
// fields of package structs.
func (c *checker) seed() {
	inRedactPkg := c.pass.Pkg != nil &&
		(c.pass.Pkg.Path() == "redact" || strings.HasSuffix(c.pass.Pkg.Path(), "/redact"))
	for fn, fd := range c.decls {
		if inRedactPkg || analysis.Annotated(fd.Doc, analysis.AnnRedacts) {
			c.redactors[fn] = true
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		if credName(fn.Name()) {
			for i := 0; i < sig.Results().Len(); i++ {
				if stringish(sig.Results().At(i).Type()) {
					c.mark(c.retCred, fn, i)
				}
			}
		}
		for i := 0; i < sig.Params().Len(); i++ {
			p := sig.Params().At(i)
			if credName(p.Name()) && (stringish(p.Type()) || ptrToStringish(p.Type())) {
				c.mark(c.parCred, fn, i)
			}
		}
		// Parameter object → index, for body seeding and summaries.
		idx := make(map[types.Object]int, sig.Params().Len())
		if fd.Type.Params != nil {
			i := 0
			for _, fld := range fd.Type.Params.List {
				for _, name := range fld.Names {
					if obj := c.pass.TypesInfo.Defs[name]; obj != nil {
						idx[obj] = i
					}
					i++
				}
				if len(fld.Names) == 0 {
					i++
				}
			}
		}
		c.params[fn] = idx
	}

	scope := c.pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if credName(f.Name()) && stringish(f.Type()) {
				c.fields[f] = true
			}
		}
	}
}

func (c *checker) mark(m map[*types.Func]map[int]bool, fn *types.Func, i int) bool {
	set := m[fn]
	if set == nil {
		set = make(map[int]bool)
		m[fn] = set
	}
	if set[i] {
		return false
	}
	set[i] = true
	return true
}

// exportFacts publishes the package's summaries through the facts
// pipeline for importing packages.
func (c *checker) exportFacts() {
	for fn := range c.redactors {
		c.pass.ExportObjectFact(fn, &Redacts{})
	}
	for fn := range c.decls {
		if rs := sortedIndices(c.retCred[fn]); len(rs) > 0 {
			c.pass.ExportObjectFact(fn, &ReturnsCredential{Results: rs})
		}
		if ps := sortedIndices(c.parCred[fn], c.propag[fn]); len(ps) > 0 {
			c.pass.ExportObjectFact(fn, &ParamIsCredential{Params: ps})
		}
	}
	for f := range c.fields {
		c.pass.ExportObjectFact(f, &CredField{})
	}
}

func sortedIndices(sets ...map[int]bool) []int {
	seen := make(map[int]bool)
	var out []int
	for _, set := range sets {
		for i := range set {
			if !seen[i] {
				seen[i] = true
				out = append(out, i)
			}
		}
	}
	sort.Ints(out)
	return out
}

// propagate performs one forward pass of assignment-based taint: a local
// variable whose initializer is tainted carries the taint to its uses.
// Credential-declared parameters and pointer arguments filled by
// credential-writing callees are tainted too.
func (c *checker) propagate(fn *types.Func, body *ast.BlockStmt) {
	for obj, i := range c.params[fn] {
		if c.parCred[fn][i] {
			c.tainted[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					if c.taintedExpr(n.Rhs[i]) {
						if obj := c.objOf(id); obj != nil {
							c.tainted[obj] = true
						}
					}
				}
			} else if len(n.Rhs) == 1 {
				c.taintTupleAssign(n.Lhs, n.Rhs[0])
			}
		case *ast.ValueSpec:
			if len(n.Values) == 1 && len(n.Names) > 1 {
				lhs := make([]ast.Expr, len(n.Names))
				for i, id := range n.Names {
					lhs[i] = id
				}
				c.taintTupleAssign(lhs, n.Values[0])
				return true
			}
			for i, id := range n.Names {
				if i < len(n.Values) && c.taintedExpr(n.Values[i]) {
					if obj := c.objOf(id); obj != nil {
						c.tainted[obj] = true
					}
				}
			}
		case *ast.CallExpr:
			c.taintPointerArgs(n)
		}
		return true
	})
}

// taintTupleAssign handles `tok, err := f()`: result indices carrying
// credentials (per local summary or imported fact) taint the matching
// left-hand variables.
func (c *checker) taintTupleAssign(lhs []ast.Expr, rhs ast.Expr) {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := analysis.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil || c.redactor(fn) {
		return
	}
	for _, i := range c.credResults(fn) {
		if i >= len(lhs) {
			continue
		}
		if id, ok := lhs[i].(*ast.Ident); ok {
			if obj := c.objOf(id); obj != nil {
				c.tainted[obj] = true
			}
		}
	}
}

// taintPointerArgs handles out-parameters: a call like Fill(&tok) where
// the callee's ParamIsCredential fact covers that position taints tok.
func (c *checker) taintPointerArgs(call *ast.CallExpr) {
	fn := analysis.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil || c.redactor(fn) {
		return
	}
	idxs := c.credParams(fn)
	if len(idxs) == 0 {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	for argIdx, arg := range call.Args {
		un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
		if !ok || un.Op != token.AND {
			continue
		}
		id, ok := ast.Unparen(un.X).(*ast.Ident)
		if !ok {
			continue
		}
		if idxs[paramIndexFor(sig, argIdx)] {
			if obj := c.objOf(id); obj != nil {
				c.tainted[obj] = true
			}
		}
	}
}

// summarize records what a function's body reveals about its signature:
// tainted returns, credentials written through pointer parameters,
// credentials stored into struct fields, and parameters forwarded into
// string results. It reports whether any summary grew.
func (c *checker) summarize(fn *types.Func, fd *ast.FuncDecl) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	changed := false

	for _, ret := range ownReturns(fd.Body) {
		if len(ret.Results) != sig.Results().Len() {
			continue // naked return or tuple forwarding; out of scope
		}
		for i, res := range ret.Results {
			if !stringish(sig.Results().At(i).Type()) {
				continue
			}
			if c.taintedExpr(res) && c.mark(c.retCred, fn, i) {
				changed = true
			}
			for pi := range c.derivedParams(fn, res) {
				if c.mark(c.propag, fn, pi) {
					changed = true
				}
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if !c.taintedExpr(n.Rhs[i]) {
					continue
				}
				switch lhs := ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr:
					// x.Field = <tainted> marks Field as credential-bearing.
					if f := c.ownFieldOf(lhs); f != nil && !c.fields[f] {
						c.fields[f] = true
						changed = true
					}
				case *ast.StarExpr:
					// *p = <tainted> where p is a parameter.
					if id, ok := ast.Unparen(lhs.X).(*ast.Ident); ok {
						if pi, ok := c.params[fn][c.objOf(id)]; ok && c.mark(c.parCred, fn, pi) {
							changed = true
						}
					}
				case *ast.IndexExpr:
					// m[k] = <tainted> where m is a map parameter.
					if id, ok := ast.Unparen(lhs.X).(*ast.Ident); ok {
						if pi, ok := c.params[fn][c.objOf(id)]; ok && c.mark(c.parCred, fn, pi) {
							changed = true
						}
					}
				}
			}
		case *ast.CompositeLit:
			// T{Field: <tainted>} marks Field as credential-bearing.
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				f, ok := c.pass.TypesInfo.Uses[key].(*types.Var)
				if !ok || !f.IsField() || f.Pkg() != c.pass.Pkg {
					continue
				}
				if stringish(f.Type()) && c.taintedExpr(kv.Value) && !c.fields[f] {
					c.fields[f] = true
					changed = true
				}
			}
		}
		return true
	})
	return changed
}

// ownFieldOf resolves sel to a string-shaped struct field owned by the
// package under analysis, or nil.
func (c *checker) ownFieldOf(sel *ast.SelectorExpr) *types.Var {
	s, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	f, ok := s.Obj().(*types.Var)
	if !ok || f.Pkg() != c.pass.Pkg || !stringish(f.Type()) {
		return nil
	}
	return f
}

// ownReturns collects fd's return statements, excluding those of nested
// function literals.
func ownReturns(body *ast.BlockStmt) []*ast.ReturnStmt {
	var out []*ast.ReturnStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			out = append(out, n)
		}
		return true
	})
	return out
}

// derivedParams reports which of fn's parameters the expression's value
// is textually derived from: directly, through concatenation or
// conversion, or through a value-returning formatter (fmt.Sprintf and
// friends, or another local wrapper). These positions become
// ParamIsCredential facts so a tainted argument taints the result at
// every call site, including cross-package ones.
func (c *checker) derivedParams(fn *types.Func, e ast.Expr) map[int]bool {
	out := make(map[int]bool)
	c.collectDerived(fn, e, out)
	return out
}

func (c *checker) collectDerived(fn *types.Func, e ast.Expr, out map[int]bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if pi, ok := c.params[fn][c.objOf(e)]; ok {
			out[pi] = true
		}
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			c.collectDerived(fn, e.X, out)
			c.collectDerived(fn, e.Y, out)
		}
	case *ast.IndexExpr:
		c.collectDerived(fn, e.X, out)
	case *ast.SliceExpr:
		c.collectDerived(fn, e.X, out)
	case *ast.StarExpr:
		c.collectDerived(fn, e.X, out)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			c.collectDerived(fn, e.X, out)
		}
	case *ast.CallExpr:
		// Conversions pass the value through untouched.
		if len(e.Args) == 1 {
			if tv, ok := c.pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() {
				c.collectDerived(fn, e.Args[0], out)
				return
			}
		}
		callee := analysis.CalleeFunc(c.pass.TypesInfo, e)
		if callee == nil || c.redactor(callee) {
			return
		}
		if callee.Pkg() != nil && callee.Pkg().Path() == "fmt" && valueFormatters[callee.Name()] {
			for _, arg := range e.Args {
				c.collectDerived(fn, arg, out)
			}
			return
		}
		// A call to another wrapper forwards through its propagating
		// positions (local summary or imported fact).
		if idxs := c.credParams(callee); len(idxs) > 0 {
			sig, _ := callee.Type().(*types.Signature)
			for argIdx, arg := range e.Args {
				if idxs[paramIndexFor(sig, argIdx)] {
					c.collectDerived(fn, arg, out)
				}
			}
		}
	}
}

// credResults merges fn's credential-carrying result indices from the
// local summary and, for imported functions, the ReturnsCredential fact.
func (c *checker) credResults(fn *types.Func) []int {
	if set := c.retCred[fn]; len(set) > 0 {
		return sortedIndices(set)
	}
	var fact ReturnsCredential
	if c.pass.ImportObjectFact(fn, &fact) {
		return fact.Results
	}
	return nil
}

// credParams merges fn's credential parameter positions from local
// summaries and the ParamIsCredential fact.
func (c *checker) credParams(fn *types.Func) map[int]bool {
	out := make(map[int]bool)
	for i := range c.parCred[fn] {
		out[i] = true
	}
	for i := range c.propag[fn] {
		out[i] = true
	}
	var fact ParamIsCredential
	if c.pass.ImportObjectFact(fn, &fact) {
		for _, i := range fact.Params {
			out[i] = true
		}
	}
	return out
}

// paramIndexFor maps an argument position to its parameter index,
// folding variadic arguments onto the last parameter.
func paramIndexFor(sig *types.Signature, argIdx int) int {
	if sig == nil {
		return argIdx
	}
	n := sig.Params().Len()
	if n == 0 {
		return argIdx
	}
	if argIdx >= n {
		return n - 1
	}
	return argIdx
}

func (c *checker) objOf(id *ast.Ident) types.Object {
	if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return c.pass.TypesInfo.Uses[id]
}

// checkSinks reports tainted arguments of sink calls.
func (c *checker) checkSinks(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(c.pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		names := sinkFuncs[fn.Pkg().Path()]
		if (names == nil || !names[fn.Name()]) && !obsSink(fn) {
			return true
		}
		for _, arg := range call.Args {
			if c.taintedExpr(arg) {
				c.pass.Reportf(call.Pos(),
					"possible bearer-token leak: %s flows into %s.%s; redact first (internal/redact or a //collusionvet:redacts helper)",
					describe(arg), fn.Pkg().Name(), fn.Name())
			}
		}
		return true
	})
}

// taintedExpr reports whether e may carry a bearer credential.
func (c *checker) taintedExpr(e ast.Expr) bool {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if c.tainted[c.objOf(e)] {
			return true
		}
		if urlValue(c.typeOf(e)) {
			return true
		}
		return credName(e.Name) && stringish(c.typeOf(e))
	case *ast.SelectorExpr:
		if urlValue(c.typeOf(e)) {
			return true
		}
		if urlCredField(c.pass.TypesInfo, e) {
			return true
		}
		if c.credFieldSel(e) {
			return true
		}
		return credName(e.Sel.Name) && stringish(c.typeOf(e))
	case *ast.CallExpr:
		return c.taintedCall(e)
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			return c.taintedExpr(e.X) || c.taintedExpr(e.Y)
		}
	case *ast.IndexExpr:
		if lit := sensitiveLit(e.Index); lit {
			return true // vals["access_token"]
		}
		return c.taintedExpr(e.X)
	case *ast.StarExpr:
		return c.taintedExpr(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return c.taintedExpr(e.X)
		}
	}
	if urlValue(c.typeOf(e)) {
		return true
	}
	return false
}

// credFieldSel reports whether sel reads a credential-holding struct
// field: per the local field summary for package types, or per an
// imported CredField fact for fields defined in dependencies.
func (c *checker) credFieldSel(sel *ast.SelectorExpr) bool {
	s, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	f, ok := s.Obj().(*types.Var)
	if !ok {
		return false
	}
	if c.fields[f] {
		return true
	}
	var fact CredField
	return c.pass.ImportObjectFact(f, &fact)
}

func (c *checker) taintedCall(call *ast.CallExpr) bool {
	// Conversions like string(tok) keep the taint.
	if len(call.Args) == 1 {
		if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			return c.taintedExpr(call.Args[0])
		}
	}
	fn := analysis.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	if c.redactor(fn) {
		return false
	}
	if urlValue(c.typeOf(call)) {
		return true // e.g. req.URL.Query()
	}
	// url.URL.String() re-serializes whatever the URL carries.
	if fn.Name() == "String" && recvIsURL(fn) {
		return true
	}
	// Values.Get("access_token"), r.FormValue("client_secret"), ...
	switch fn.Name() {
	case "Get", "FormValue", "PostFormValue":
		if len(call.Args) >= 1 && sensitiveLit(call.Args[0]) {
			return true
		}
	}
	// A callee known — by body analysis here, or by fact from its own
	// package's analysis — to return a credential.
	if len(c.credResults(fn)) > 0 {
		return true
	}
	// NewSecret(), SecretProof(...), mintToken(...) — result named like
	// a credential and string-shaped (fallback for fact-less packages).
	if credName(fn.Name()) && stringish(c.typeOf(call)) {
		return true
	}
	// Wrapper propagation: a tainted argument at a credential parameter
	// position of a string-returning callee taints the result —
	// fmt.Sprintf itself, or any wrapper that forwards into one.
	if stringish(c.typeOf(call)) {
		if idxs := c.credParams(fn); len(idxs) > 0 {
			sig, _ := fn.Type().(*types.Signature)
			for argIdx, arg := range call.Args {
				if idxs[paramIndexFor(sig, argIdx)] && c.taintedExpr(arg) {
					return true
				}
			}
		}
	}
	return false
}

// obsSink reports whether fn is a span attribute/event setter in an obs
// package. Span data is exported verbatim over /debug/traces and trace
// JSONL dumps, so these are credential sinks exactly like log calls.
func obsSink(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	if p != "obs" && !strings.HasSuffix(p, "/obs") {
		return false
	}
	switch fn.Name() {
	case "SetAttr", "Event":
		return true
	case "Warnf", "Errorf", "Fatalf":
		// The obs.Logger methods. They redact at runtime as a backstop,
		// but a credential reaching them is still a bug the analyzer
		// should surface at the call site.
		return true
	}
	return false
}

// redactor reports whether calls to fn launder taint: anything in a
// .../redact package, a helper annotated //collusionvet:redacts in this
// package, or one carrying an exported Redacts fact from its own.
func (c *checker) redactor(fn *types.Func) bool {
	if fn.Pkg() != nil {
		p := fn.Pkg().Path()
		if p == "redact" || strings.HasSuffix(p, "/redact") {
			return true
		}
	}
	if c.redactors[fn] {
		return true
	}
	var fact Redacts
	return c.pass.ImportObjectFact(fn, &fact)
}

func (c *checker) typeOf(e ast.Expr) types.Type {
	return c.pass.TypesInfo.Types[e].Type
}

// urlValue reports whether t is url.URL, *url.URL, or url.Values.
func urlValue(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "net/url" {
		return false
	}
	return obj.Name() == "URL" || obj.Name() == "Values" || obj.Name() == "Userinfo"
}

// urlCredField reports whether sel reads a credential-carrying field of
// url.URL (Fragment, RawQuery, RawFragment).
func urlCredField(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	n, ok := recv.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "net/url" || n.Obj().Name() != "URL" {
		return false
	}
	switch sel.Sel.Name {
	case "Fragment", "RawQuery", "RawFragment":
		return true
	}
	return false
}

func recvIsURL(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return urlValue(sig.Recv().Type())
}

// stringish limits name-based taint to types that can textually carry a
// token: strings, string slices/maps, and url.Values.
func stringish(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Slice:
		return stringish(u.Elem())
	case *types.Map:
		return stringish(u.Elem())
	}
	return false
}

// ptrToStringish reports whether t is a pointer to a stringish type —
// the shape of a credential out-parameter.
func ptrToStringish(t types.Type) bool {
	p, ok := t.Underlying().(*types.Pointer)
	return ok && stringish(p.Elem())
}

// credName reports whether an identifier's final segment names a
// credential ("accessToken", "app_secret", "tok"), while names like
// "tokenType" or "tokenCount" stay clean.
func credName(name string) bool {
	segs := segments(name)
	if len(segs) == 0 {
		return false
	}
	last := segs[len(segs)-1]
	if credWords[last] {
		return true
	}
	return len(segs) >= 2 && credWords[segs[len(segs)-2]+last]
}

// sensitiveLit reports whether e is a string literal naming a credential
// parameter ("access_token", "client_secret", "appsecret_proof").
func sensitiveLit(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return false
	}
	v := strings.Trim(lit.Value, "`\"")
	return credName(v)
}

func segments(name string) []string {
	var segs []string
	start := 0
	lower := strings.ToLower(name)
	for i := 1; i <= len(name); i++ {
		if i == len(name) || name[i] == '_' ||
			(name[i] >= 'A' && name[i] <= 'Z' && !(name[i-1] >= 'A' && name[i-1] <= 'Z')) {
			if start < i {
				seg := lower[start:i]
				seg = strings.Trim(seg, "_")
				if seg != "" {
					segs = append(segs, seg)
				}
			}
			start = i
			if i < len(name) && name[i] == '_' {
				start = i + 1
			}
		}
	}
	return segs
}

func describe(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return "`" + e.Name + "`"
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			return "`" + x.Name + "." + e.Sel.Name + "`"
		}
		return "`" + e.Sel.Name + "`"
	case *ast.CallExpr:
		return "call result"
	}
	return "value"
}
