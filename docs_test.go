package xymon

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// harnessName matches a benchmark or test function named in prose.
var harnessName = regexp.MustCompile(`\b(?:Benchmark|Test)[A-Z0-9]\w*`)

// TestExperimentDocsCiteExistingHarness holds the experiment index to the
// code: every "Bench target" cell of DESIGN.md's experiment table and
// every *Repro:* paragraph of EXPERIMENTS.md must name at least one
// Benchmark or Test function, each named function must be declared in
// some _test.go file of the module, and none may cite the deleted
// cmd/xybench harness.
func TestExperimentDocsCiteExistingHarness(t *testing.T) {
	declared := testFuncs(t)
	check := func(where, cite string) {
		if strings.Contains(cite, "xybench") {
			t.Errorf("%s cites xybench, which no longer exists: %q", where, cite)
		}
		names := harnessName.FindAllString(cite, -1)
		if len(names) == 0 {
			t.Errorf("%s names no Benchmark or Test function: %q", where, cite)
		}
		for _, n := range names {
			if !declared[n] {
				t.Errorf("%s names %s, which no _test.go file declares", where, n)
			}
		}
	}

	col, rows := -1, 0
	for _, line := range strings.Split(readDoc(t, "DESIGN.md"), "\n") {
		cells := strings.Split(line, "|")
		if col < 0 {
			for i, c := range cells {
				if strings.TrimSpace(c) == "Bench target" {
					col = i
				}
			}
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break // end of the experiment table
		}
		if id := strings.TrimSpace(cells[1]); col < len(cells) && !strings.HasPrefix(id, "-") {
			check("DESIGN.md "+id, cells[col])
			rows++
		}
	}
	if rows == 0 {
		t.Fatal(`DESIGN.md: no experiment table with a "Bench target" column`)
	}

	repros := 0
	for _, para := range strings.Split(readDoc(t, "EXPERIMENTS.md"), "\n\n") {
		if i := strings.Index(para, "*Repro:*"); i >= 0 {
			check("EXPERIMENTS.md Repro", para[i:])
			repros++
		}
	}
	if repros == 0 {
		t.Fatal("EXPERIMENTS.md: no *Repro:* lines")
	}
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// testFuncs returns the names of the top-level functions declared in the
// module's _test.go files.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	names := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
