package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// buildTool compiles the checker into a temp dir and returns its path.
func buildTool(t *testing.T, root string) string {
	t.Helper()
	tool := filepath.Join(t.TempDir(), "collusionvet")
	if runtime.GOOS == "windows" {
		tool += ".exe"
	}
	build := exec.Command("go", "build", "-o", tool, "./cmd/collusionvet")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/collusionvet: %v\n%s", err, out)
	}
	return tool
}

// TestVetCleanTree is the end-to-end smoke test: build the checker and
// drive it over the whole module through `go vet -vettool`, proving
// both that the driver speaks cmd/go's protocol (-V=full, -flags,
// vet.cfg round-trip) and that the merged tree carries no unsuppressed
// violations of any collusionvet invariant.
func TestVetCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the module and vets every package")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	tool := buildTool(t, root)

	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("collusionvet reported violations: %v\n%s", err, out)
	}

	// JSON mode must also succeed and emit the x/tools-shaped envelope
	// (cmd/go relays the tool's stdout onto its stderr under # headers).
	vetJSON := exec.Command("go", "vet", "-vettool="+tool, "-json", "./internal/redact")
	vetJSON.Dir = root
	out, err := vetJSON.CombinedOutput()
	if err != nil {
		t.Fatalf("collusionvet -json: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), `"repro/internal/redact"`) {
		t.Fatalf("-json output missing package envelope:\n%s", out)
	}
}

// TestVetCatchesViolation proves the go vet integration actually fails
// the build when an invariant is broken, using an overlay that plants a
// token-logging line in a scratch package.
func TestVetCatchesViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the module and runs go vet")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	tool := buildTool(t, root)

	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module scratch\n\ngo 1.24\n")
	writeFile(t, filepath.Join(dir, "leak.go"), `package scratch

import "fmt"

func Leak(accessToken string) string {
	return fmt.Sprintf("token=%s", accessToken)
}
`)
	vet := exec.Command("go", "vet", "-vettool="+tool, ".")
	vet.Dir = dir
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet passed on a planted token leak:\n%s", out)
	}
	if !strings.Contains(string(out), "tokenflow") {
		t.Fatalf("diagnostic missing analyzer name:\n%s", out)
	}
}

// TestFactsDumpGolden pins the decoded fact sets of internal/oauthsim
// and internal/graphapi: the exact ReturnsCredential /
// ParamIsCredential / CredField lines each package exports to its
// importers. graphapi's set includes the policy request's token field,
// so a change that drops the credential taint of what every policy
// sees fails here. A diff means the taint summaries changed —
// deliberate analyzer work, or an accidental regression in the facts
// pipeline.
func TestFactsDumpGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the module and analyzes the oauthsim and graphapi closures")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	tool := buildTool(t, root)

	for _, pkg := range []string{"oauthsim", "graphapi"} {
		dump := exec.Command(tool, "-facts", "repro/internal/"+pkg)
		dump.Dir = root
		out, err := dump.Output()
		if err != nil {
			t.Fatalf("collusionvet -facts repro/internal/%s: %v", pkg, err)
		}
		golden, err := os.ReadFile(filepath.Join(root, "cmd", "collusionvet", "testdata", pkg+".facts"))
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != string(golden) {
			t.Errorf("-facts repro/internal/%s diverged from testdata/%s.facts:\ngot:\n%s\nwant:\n%s", pkg, pkg, out, golden)
		}
	}
}

// TestVetCrossPackageFacts drives the full vet protocol across a
// package boundary: a scratch module whose root package logs a value
// returned by an innocently named helper in a second package. The
// helper's name says nothing, so only the ReturnsCredential fact
// carried in the dependency's .vetx file (PackageVetx wiring) can make
// the leak visible to the root package's analysis.
func TestVetCrossPackageFacts(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the module and runs go vet")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	tool := buildTool(t, root)

	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module scratch\n\ngo 1.24\n")
	writeFile(t, filepath.Join(dir, "credlib", "credlib.go"), `package credlib

// Mint returns a bearer credential under an innocent name.
func Mint() string {
	secret := "opaque"
	return secret
}
`)
	writeFile(t, filepath.Join(dir, "leak.go"), `package scratch

import (
	"log"

	"scratch/credlib"
)

func Leak() {
	c := credlib.Mint()
	log.Printf("session: %s", c)
}
`)
	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = dir
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet passed on a cross-package credential leak:\n%s", out)
	}
	if !strings.Contains(string(out), "tokenflow") || !strings.Contains(string(out), "leak.go") {
		t.Fatalf("expected a tokenflow diagnostic in leak.go, got:\n%s", out)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
}
