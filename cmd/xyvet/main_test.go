package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// wantKey identifies one expected finding in a fixture file.
type wantKey struct {
	file string // base name
	line int
	rule string
}

// collectWants gathers the `// want rule[ rule...]` annotations of a
// loaded fixture package, keyed by (file, line, rule) with counts. A line
// whose own comment is an //xyvet:ignore takes its want in a block
// comment before it: `/* want staleignore */`.
func collectWants(pkg *Package, wants map[wantKey]int) {
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if body, ok := strings.CutPrefix(c.Text, "/*"); ok {
					text = strings.TrimSuffix(body, "*/")
				}
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, rule := range strings.Fields(rest) {
					wants[wantKey{filepath.Base(pos.Filename), pos.Line, rule}]++
				}
			}
		}
	}
}

// fixtureRoot returns the module root, two levels above the package
// directory the test runs in, and the fixture tree.
func fixtureRoot(t *testing.T) (root, fixtures string) {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(cwd)), filepath.Join(cwd, "testdata", "src")
}

// TestFixtures runs the full analyzer suite over every fixture subtree
// and requires the finding set to match the `// want` annotations
// exactly — each analyzer has positive and negative cases there. Each
// fixture loads on its own so the engine's call graph covers exactly
// that fixture plus its dependency closure.
func TestFixtures(t *testing.T) {
	root, fixtures := fixtureRoot(t)
	entries, err := os.ReadDir(fixtures)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			pkgs, _, err := load(root, []string{"./cmd/xyvet/testdata/src/" + e.Name() + "/..."})
			if err != nil {
				t.Fatal(err)
			}
			wants := make(map[wantKey]int)
			analyzed := 0
			for _, pkg := range pkgs {
				if !pkg.Analyzed {
					continue
				}
				analyzed++
				for _, terr := range pkg.TypeErrors {
					t.Errorf("type error: %v", terr)
				}
				collectWants(pkg, wants)
			}
			if analyzed == 0 {
				t.Fatal("fixture has no Go files")
			}
			total += len(wants)
			got := make(map[wantKey]int)
			for _, f := range analyzeAll(pkgs, nil) {
				pos := pkgs[0].Fset.Position(f.Pos)
				got[wantKey{filepath.Base(pos.Filename), pos.Line, f.Rule}]++
			}
			var keys []wantKey
			for k := range wants {
				keys = append(keys, k)
			}
			for k := range got {
				if _, ok := wants[k]; !ok {
					keys = append(keys, k)
				}
			}
			sort.Slice(keys, func(i, j int) bool {
				a, b := keys[i], keys[j]
				if a.file != b.file {
					return a.file < b.file
				}
				if a.line != b.line {
					return a.line < b.line
				}
				return a.rule < b.rule
			})
			for _, k := range keys {
				if got[k] != wants[k] {
					t.Errorf("%s:%d [%s]: got %d findings, want %d", k.file, k.line, k.rule, got[k], wants[k])
				}
			}
		})
	}
	if total == 0 {
		t.Fatal("no want annotations found in any fixture")
	}
}

// TestEngineGolden pins the full CLI output over the engine fixture — a
// two-package module slice whose deliberate lock cycle is only visible
// once interface calls are resolved across package boundaries and the
// summaries reach their fixpoint. The golden file catches any drift in
// call-graph construction, witness selection or message rendering.
func TestEngineGolden(t *testing.T) {
	checkGolden(t, "engine")
}

// TestLockcheckGolden pins lockcheck's messages over its fixture, which
// TestFixtures compares by file, line and rule only.
func TestLockcheckGolden(t *testing.T) {
	checkGolden(t, "lockcheck")
}

// checkGolden requires the CLI output over testdata/src/<fixture> to be
// byte-identical to testdata/<fixture>.golden.
func checkGolden(t *testing.T, fixture string) {
	t.Helper()
	root, _ := fixtureRoot(t)
	var buf bytes.Buffer
	n, err := run(&buf, root, []string{"./cmd/xyvet/testdata/src/" + fixture + "/..."}, options{})
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", fixture+".golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("%s fixture output drifted from %s\n--- got ---\n%s--- want ---\n%s", fixture, golden, got, want)
	}
	if wantN := strings.Count(string(want), "\n"); n != wantN {
		t.Errorf("run reported %d findings, golden has %d lines", n, wantN)
	}
}

// TestFixturesExitNonZero mirrors the CLI contract: vetting the seeded
// fixture tree reports findings (non-zero exit), one line each.
func TestFixturesExitNonZero(t *testing.T) {
	root, _ := fixtureRoot(t)
	var buf bytes.Buffer
	n, err := run(&buf, root, []string{"./cmd/xyvet/testdata/src/..."}, options{})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("expected findings in fixture packages, got none")
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != n {
		t.Errorf("printed %d lines for %d findings", lines, n)
	}
}

// TestCleanTree asserts the repository itself vets clean against its
// baseline, as the CI gate `go run ./cmd/xyvet -baseline xyvet.baseline
// ./...` requires, and that the committed baseline is exactly what
// -write-baseline produces: no finding outside it, no stale line in it.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and analyzes the whole module")
	}
	root, _ := fixtureRoot(t)
	fresh := filepath.Join(t.TempDir(), "xyvet.baseline")
	if _, err := run(io.Discard, root, []string{"./..."}, options{writeBaseline: fresh}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(root, "xyvet.baseline"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("module findings differ from xyvet.baseline\n--- findings ---\n%s--- baseline ---\n%s", got, want)
	}
}

// TestTestonlyPartialRun vets internal packages without their importers:
// the fixture's lib without pub, and internal/cluster without pubsub (whose
// Client aliases cluster.RingClient) or anything else that calls it. An
// unloaded package may use any of their exports, so testonly must report
// none of them.
func TestTestonlyPartialRun(t *testing.T) {
	root, _ := fixtureRoot(t)
	for _, pattern := range []string{"./cmd/xyvet/testdata/src/testonly/internal/lib", "./internal/cluster"} {
		var buf bytes.Buffer
		if _, err := run(&buf, root, []string{pattern}, options{}); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(buf.String(), "[testonly]") {
			t.Errorf("partial run over %s reported exports its unloaded importers may use:\n%s", pattern, buf.String())
		}
	}
}

// TestTestonlyWholeLoad: a load of ./... from the module root spans the
// module, so testonly skips its own listing, and the listing would have
// found no package open either; a load of a subtree does not span it.
func TestTestonlyWholeLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	root, _ := fixtureRoot(t)
	pkgs, _, err := load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if !pkgs[0].Whole {
		t.Fatal("a load of ./... at the module root is not marked Whole")
	}
	skipped := openPackages(pkgs)
	pkgs[0].Whole = false
	if listed := openPackages(pkgs); len(skipped) != 0 || len(listed) != 0 {
		t.Errorf("open packages after a whole load: %v without the listing, %v with it; want none", skipped, listed)
	}
	sub, _, err := load(root, []string{"./cmd/..."})
	if err != nil {
		t.Fatal(err)
	}
	if sub[0].Whole {
		t.Error("a load of ./cmd/... is marked Whole")
	}
}

// TestPatterns covers how run resolves package patterns: a subtree walk
// skips testdata, a pattern outside the module or naming no directory is
// refused (the CLI exits 2), and a run started in a subdirectory resolves
// patterns there but prints the same module-root-relative lines.
func TestPatterns(t *testing.T) {
	root, _ := fixtureRoot(t)
	var buf bytes.Buffer
	if _, err := run(&buf, root, []string{"./cmd/..."}, options{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "testdata") {
		t.Errorf("walk of ./cmd/... vetted testdata packages:\n%s", buf.String())
	}
	for _, pattern := range []string{"../...", "./no/such/dir"} {
		if _, err := run(io.Discard, root, []string{pattern}, options{}); err == nil {
			t.Errorf("pattern %s was accepted", pattern)
		}
	}

	var fromRoot, fromSub bytes.Buffer
	if _, err := run(&fromRoot, root, []string{"./cmd/xyvet/testdata/src/lockcheck"}, options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := run(&fromSub, filepath.Join(root, "cmd", "xyvet", "testdata"), []string{"./src/lockcheck"}, options{}); err != nil {
		t.Fatal(err)
	}
	if fromRoot.Len() == 0 || fromSub.String() != fromRoot.String() {
		t.Errorf("run from a subdirectory printed\n%s\nwant the lines of the run from the module root\n%s", fromSub.String(), fromRoot.String())
	}
}
