package analysis

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"go/types"
	"io"
	"reflect"
	"sort"
	"strings"
)

// A Fact is a serializable unit of analyzer knowledge attached to a
// package-level object (function, method, struct field, or variable),
// mirroring golang.org/x/tools/go/analysis.Fact. Facts exported while
// analyzing a package are written into its .vetx file by the
// unitchecker driver and become visible — via ImportObjectFact — to
// every later analysis of a package that imports it. That is how
// credential taint (tokenflow) and lock-acquisition summaries
// (lockorder) survive package boundaries without annotations.
//
// Concrete fact types must be pointers to structs with exported fields,
// registered once via RegisterFact (package init of the defining
// analyzer), because they cross the wire gob-encoded inside an
// interface.
type Fact interface {
	AFact() // dummy marker method
}

// registeredFacts records every concrete fact type for gob decoding and
// for the version hash: any change to the set of fact kinds or their
// field layout changes FactsVersion, so stale .vetx files written by an
// older driver are rejected rather than misdecoded.
var registeredFacts []reflect.Type

// RegisterFact makes a concrete fact type known to the codec. The
// argument must be a pointer to a struct.
func RegisterFact(f Fact) {
	t := reflect.TypeOf(f)
	if t.Kind() != reflect.Pointer || t.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("analysis: RegisterFact(%T): fact must be a pointer to a struct", f))
	}
	gob.Register(f)
	registeredFacts = append(registeredFacts, t)
}

// factsFormat is bumped on any incompatible change to the wire layout
// itself (as opposed to the fact schema, which FactsVersion hashes).
const factsFormat = "collusionvet-facts/v1"

// FactsVersion returns the driver-version hash stamped into every
// encoded fact set: a digest of the wire format tag and the full schema
// (name and fields) of every registered fact type, in sorted order so
// registration order does not matter. Decode rejects any file whose
// version differs.
func FactsVersion() string {
	sigs := make([]string, 0, len(registeredFacts))
	for _, t := range registeredFacts {
		e := t.Elem()
		var b strings.Builder
		fmt.Fprintf(&b, "%s.%s", e.PkgPath(), e.Name())
		for i := 0; i < e.NumField(); i++ {
			f := e.Field(i)
			fmt.Fprintf(&b, ";%s %s", f.Name, f.Type.String())
		}
		sigs = append(sigs, b.String())
	}
	sort.Strings(sigs)
	h := sha256.New()
	io.WriteString(h, factsFormat+"\n")
	for _, s := range sigs {
		io.WriteString(h, s+"\n")
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// factKey identifies one stored fact: facts are scoped per analyzer, so
// tokenflow and lockorder never observe each other's, and per concrete
// type, so one object can carry several fact kinds.
type factKey struct {
	analyzer string
	pkg      string // import path of the object's package
	obj      string // object path within the package (see objectPath)
	typ      reflect.Type
}

// FactSet holds the facts visible to one package analysis: everything
// decoded from the .vetx files of its dependencies plus everything the
// current run exports. Encode re-serializes the whole set, so facts
// propagate transitively even when a driver only hands direct
// dependencies' files to the next run.
type FactSet struct {
	facts map[factKey]Fact
	// fieldPaths caches, per defining package, the "Type.Field" path of
	// every struct field reachable from the package scope; struct field
	// objects do not record their owner, so the owner is recovered by
	// scanning the scope once.
	fieldPaths map[*types.Package]map[types.Object]string
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{
		facts:      make(map[factKey]Fact),
		fieldPaths: make(map[*types.Package]map[types.Object]string),
	}
}

// objectPath returns the stable intra-package path of obj — the key
// both the exporting (source-typechecked) and importing (export-data)
// sides agree on:
//
//	Func                    →  Name
//	(T) Method / (*T) Method →  T.Method
//	struct field            →  T.Field
//	package-level var       →  Name
//
// ok is false for objects facts cannot attach to (locals, imports,
// objects without a package).
func (s *FactSet) objectPath(obj types.Object) (pkg, path string, ok bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", "", false
	}
	switch obj := obj.(type) {
	case *types.Func:
		sig, _ := obj.Type().(*types.Signature)
		if sig == nil {
			return "", "", false
		}
		if recv := sig.Recv(); recv != nil {
			named := namedOf(recv.Type())
			if named == nil {
				return "", "", false // interface or weird receiver
			}
			return obj.Pkg().Path(), named.Obj().Name() + "." + obj.Name(), true
		}
		return obj.Pkg().Path(), obj.Name(), true
	case *types.Var:
		if obj.IsField() {
			paths := s.fieldPaths[obj.Pkg()]
			if paths == nil {
				paths = fieldPathsOf(obj.Pkg())
				s.fieldPaths[obj.Pkg()] = paths
			}
			p, ok := paths[obj]
			return obj.Pkg().Path(), p, ok
		}
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path(), obj.Name(), true
		}
	}
	return "", "", false
}

// fieldPathsOf scans a package scope for named struct types and maps
// each field object to its "Type.Field" path. Scope names are sorted,
// so a field reachable under two aliases resolves deterministically.
func fieldPathsOf(pkg *types.Package) map[types.Object]string {
	m := make(map[types.Object]string)
	scope := pkg.Scope()
	names := scope.Names() // already sorted
	for _, name := range names {
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
			if _, dup := m[f]; !dup {
				m[f] = name + "." + f.Name()
			}
		}
	}
	return m
}

// namedOf strips pointers and returns the named type beneath t, if any.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// export stores fact for obj under the analyzer's namespace,
// overwriting any previous fact of the same concrete type.
func (s *FactSet) export(analyzer string, obj types.Object, fact Fact) {
	pkg, path, ok := s.objectPath(obj)
	if !ok {
		return
	}
	s.facts[factKey{analyzer, pkg, path, reflect.TypeOf(fact)}] = fact
}

// lookup copies the stored fact matching (analyzer, obj, type of ptr)
// into ptr and reports whether one existed.
func (s *FactSet) lookup(analyzer string, obj types.Object, ptr Fact) bool {
	pkg, path, ok := s.objectPath(obj)
	if !ok {
		return false
	}
	got, ok := s.facts[factKey{analyzer, pkg, path, reflect.TypeOf(ptr)}]
	if !ok {
		return false
	}
	reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(got).Elem())
	return true
}

// Merge adds every fact of other into s (other wins on conflict).
func (s *FactSet) Merge(other *FactSet) {
	if other == nil {
		return
	}
	for k, f := range other.facts {
		s.facts[k] = f
	}
}

// wireFact is the serialized form of one fact. Field names are the wire
// format; do not rename.
type wireFact struct {
	Analyzer string
	PkgPath  string
	ObjPath  string
	Fact     Fact
}

// wireFile is the content of a .vetx facts file.
type wireFile struct {
	Version string
	Facts   []wireFact
}

// sortedWire returns the set's facts in the canonical order: by package
// path, object path, analyzer, then concrete type name. Encoding in
// this order makes the gob byte stream a pure function of the set —
// map iteration order never leaks into the file, so repeated runs over
// an unchanged package produce byte-identical .vetx outputs and the
// build cache stays warm.
func (s *FactSet) sortedWire() []wireFact {
	out := make([]wireFact, 0, len(s.facts))
	for k, f := range s.facts {
		out = append(out, wireFact{k.analyzer, k.pkg, k.obj, f})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.PkgPath != b.PkgPath {
			return a.PkgPath < b.PkgPath
		}
		if a.ObjPath != b.ObjPath {
			return a.ObjPath < b.ObjPath
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return reflect.TypeOf(a.Fact).String() < reflect.TypeOf(b.Fact).String()
	})
	return out
}

// Encode serializes the fact set. The output embeds FactsVersion; a
// decoder built from a different fact schema rejects it.
func (s *FactSet) Encode(w io.Writer) error {
	return encodeFacts(w, FactsVersion(), s.sortedWire())
}

func encodeFacts(w io.Writer, version string, facts []wireFact) error {
	return gob.NewEncoder(w).Encode(wireFile{Version: version, Facts: facts})
}

// DecodeFacts reads a fact set written by Encode. Empty input yields an
// empty set (the driver seeds dependency outputs with empty files
// before analysis). A version mismatch — a .vetx written by a driver
// with a different fact schema — is an error; callers treat such files
// as absent rather than trusting stale facts.
func DecodeFacts(r io.Reader) (*FactSet, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	s := NewFactSet()
	if len(data) == 0 {
		return s, nil
	}
	var file wireFile
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&file); err != nil {
		return nil, fmt.Errorf("corrupt facts file: %v", err)
	}
	if file.Version != FactsVersion() {
		return nil, fmt.Errorf("stale facts file: version %q, driver wants %q", file.Version, FactsVersion())
	}
	for _, wf := range file.Facts {
		if wf.Fact == nil {
			continue
		}
		s.facts[factKey{wf.Analyzer, wf.PkgPath, wf.ObjPath, reflect.TypeOf(wf.Fact)}] = wf.Fact
	}
	return s, nil
}

// Dump renders the facts attached to objects of pkgPath (all packages
// when pkgPath is empty) as sorted, stable lines — the payload of the
// `collusionvet -facts` debug mode and its golden test.
func (s *FactSet) Dump(pkgPath string) []string {
	var lines []string
	for _, wf := range s.sortedWire() {
		if pkgPath != "" && wf.PkgPath != pkgPath {
			continue
		}
		t := reflect.TypeOf(wf.Fact).Elem()
		lines = append(lines, fmt.Sprintf("%s.%s\t%s\t%s%+v",
			wf.PkgPath, wf.ObjPath, wf.Analyzer, t.Name(),
			reflect.ValueOf(wf.Fact).Elem().Interface()))
	}
	return lines
}
