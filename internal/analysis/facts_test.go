package analysis

import (
	"bytes"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// testFact is a throwaway fact kind for codec tests. Registering it
// perturbs FactsVersion for this process only, which is exactly the
// versioning contract: the hash follows the registered schema.
type testFact struct {
	Note string
	Idx  []int
}

func (*testFact) AFact() {}

type otherFact struct{ N int }

func (*otherFact) AFact() {}

func init() {
	RegisterFact(&testFact{})
	RegisterFact(&otherFact{})
}

// fakePkg builds a package with a function, a method, a struct field,
// and a package-level var — one object of every fact-attachable shape.
func fakePkg() (pkg *types.Package, fn, method, field, pkgVar types.Object) {
	pkg = types.NewPackage("example.com/credlib", "credlib")

	fnObj := types.NewFunc(token.NoPos, pkg, "Mint",
		types.NewSignatureType(nil, nil, nil, nil, nil, false))
	pkg.Scope().Insert(fnObj)

	fieldVar := types.NewField(token.NoPos, pkg, "Token", types.Typ[types.String], false)
	st := types.NewStruct([]*types.Var{fieldVar}, nil)
	tn := types.NewTypeName(token.NoPos, pkg, "Creds", nil)
	named := types.NewNamed(tn, st, nil)
	pkg.Scope().Insert(tn)

	recv := types.NewVar(token.NoPos, pkg, "c", named)
	methObj := types.NewFunc(token.NoPos, pkg, "Bearer",
		types.NewSignatureType(recv, nil, nil, nil, nil, false))

	v := types.NewVar(token.NoPos, pkg, "DefaultToken", types.Typ[types.String])
	pkg.Scope().Insert(v)

	return pkg, fnObj, methObj, fieldVar, v
}

func TestFactsRoundtrip(t *testing.T) {
	_, fn, method, field, pkgVar := fakePkg()

	s := NewFactSet()
	s.export("tokenflow", fn, &testFact{Note: "returns", Idx: []int{0}})
	s.export("tokenflow", method, &testFact{Note: "recv"})
	s.export("tokenflow", field, &testFact{Note: "field"})
	s.export("lockorder", fn, &otherFact{N: 7})
	s.export("tokenflow", pkgVar, &testFact{Note: "var"})

	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeFacts(&buf)
	if err != nil {
		t.Fatalf("DecodeFacts: %v", err)
	}
	if len(got.facts) != len(s.facts) {
		t.Fatalf("decoded %d facts, want %d", len(got.facts), len(s.facts))
	}

	var tf testFact
	if !got.lookup("tokenflow", fn, &tf) || tf.Note != "returns" || len(tf.Idx) != 1 || tf.Idx[0] != 0 {
		t.Errorf("func fact after roundtrip = %+v, lookup ok=%v", tf, got.lookup("tokenflow", fn, &tf))
	}
	if !got.lookup("tokenflow", method, &tf) || tf.Note != "recv" {
		t.Errorf("method fact missing after roundtrip")
	}
	if !got.lookup("tokenflow", field, &tf) || tf.Note != "field" {
		t.Errorf("field fact missing after roundtrip")
	}
	if !got.lookup("tokenflow", pkgVar, &tf) || tf.Note != "var" {
		t.Errorf("package-var fact missing after roundtrip")
	}
	var of otherFact
	if !got.lookup("lockorder", fn, &of) || of.N != 7 {
		t.Errorf("lockorder fact = %+v", of)
	}
	// Analyzer scoping: tokenflow's facts are invisible to lockorder.
	if got.lookup("lockorder", method, &tf) {
		t.Errorf("fact leaked across analyzer namespaces")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	_, fn, method, field, _ := fakePkg()

	encode := func(objs ...types.Object) []byte {
		s := NewFactSet()
		for _, o := range objs {
			s.export("tokenflow", o, &testFact{Note: "n"})
			s.export("lockorder", o, &otherFact{N: 1})
		}
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			t.Fatalf("Encode: %v", err)
		}
		return buf.Bytes()
	}
	a := encode(fn, method, field)
	b := encode(field, fn, method)
	if !bytes.Equal(a, b) {
		t.Fatalf("gob encoding depends on insertion order:\n%x\n%x", a, b)
	}
}

func TestStaleFactsRejected(t *testing.T) {
	_, fn, _, _, _ := fakePkg()
	s := NewFactSet()
	s.export("tokenflow", fn, &testFact{Note: "x"})

	var buf bytes.Buffer
	if err := encodeFacts(&buf, "deadbeef00000000", s.sortedWire()); err != nil {
		t.Fatalf("encodeFacts: %v", err)
	}
	if _, err := DecodeFacts(&buf); err == nil || !strings.Contains(err.Error(), "stale facts") {
		t.Fatalf("DecodeFacts accepted stale version, err=%v", err)
	}
}

func TestDecodeEmptyAndCorrupt(t *testing.T) {
	s, err := DecodeFacts(bytes.NewReader(nil))
	if err != nil || len(s.facts) != 0 {
		t.Fatalf("empty input: set=%v err=%v", s, err)
	}
	if _, err := DecodeFacts(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatalf("corrupt input accepted")
	}
}

func TestFactsVersionFollowsSchema(t *testing.T) {
	v1 := FactsVersion()
	if v1 != FactsVersion() {
		t.Fatalf("FactsVersion not stable within a process")
	}
	type lateFact struct{ X string }
	// Local fact type that satisfies Fact via an embedded marker is not
	// possible without a method; simulate schema growth directly.
	registeredFactsBefore := len(registeredFacts)
	RegisterFact(&struct {
		testFact
		Late lateFact
	}{})
	defer func() { registeredFacts = registeredFacts[:registeredFactsBefore] }()
	if FactsVersion() == v1 {
		t.Fatalf("FactsVersion unchanged after schema change")
	}
}

func TestObjectPathShapes(t *testing.T) {
	pkg, fn, method, field, pkgVar := fakePkg()
	s := NewFactSet()
	cases := []struct {
		obj  types.Object
		path string
	}{
		{fn, "Mint"},
		{method, "Creds.Bearer"},
		{field, "Creds.Token"},
		{pkgVar, "DefaultToken"},
	}
	for _, c := range cases {
		gotPkg, gotPath, ok := s.objectPath(c.obj)
		if !ok || gotPkg != pkg.Path() || gotPath != c.path {
			t.Errorf("objectPath(%v) = %q %q %v, want %q %q true", c.obj, gotPkg, gotPath, ok, pkg.Path(), c.path)
		}
	}
	// A local variable is not fact-attachable.
	local := types.NewVar(token.NoPos, pkg, "tmp", types.Typ[types.String])
	if _, _, ok := s.objectPath(local); ok {
		t.Errorf("objectPath accepted a local variable")
	}
}
