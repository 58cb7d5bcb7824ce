// Package store holds one case of each rule TestNoTestOnlyExports
// applies; store_test.go is its only reader of OnlyTests and Store.Page.
package store

// OnlyTests is read by tests alone: flagged.
const OnlyTests = 1

// Store's Page is called by tests alone: flagged, although the program
// calls Book's Page, a method of the same name.
type Store struct{}

func (*Store) Page() int { return 0 }

type Book struct{}

func (Book) Page() int { return 1 }

// Namer is the interface the program converts Named to; Named.Name is
// reached only through it.
type Namer interface{ Name() string }

type Named struct{}

func (Named) Name() string { return "named" }

func Describe(n Namer) string { return n.Name() }

// Err's Error is declared by the error interface the program converts it
// to, and errors.Unwrap finds Unwrap by type assertion.
type Err struct{ Cause error }

func (e *Err) Error() string { return "err" }

func (e *Err) Unwrap() error { return e.Cause }

func Fail() error { return &Err{} }

// Level's String is found by fmt's type assertion.
type Level int

func (Level) String() string { return "level" }
