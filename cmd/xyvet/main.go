// Command xyvet is the project's static-analysis suite: a stdlib-only
// driver (go/ast, go/parser, go/types) that loads every package of the
// module and runs project-specific analyzers tuned to the failure modes
// of a long-running subscription system — lock discipline and lock
// ordering, goroutine lifecycle, silently dropped errors, fault-point
// coverage, nondeterminism and stray output. One `go list` call names the
// packages, their build-constrained files and the standard library's
// export data; module packages are type-checked from source in parallel,
// each once its imports are, and seven rules fan out per package. Seven
// more run on one engine: a module-wide call graph with per-function
// summaries propagated to a fixpoint (see callgraph.go and summary.go).
//
//	go run ./cmd/xyvet ./...
//	go run ./cmd/xyvet -json ./internal/manager ./pubsub
//	go run ./cmd/xyvet -baseline xyvet.baseline ./...
//
// Each finding is printed as
//
//	file:line:col: [rule] message
//
// and xyvet exits 1 when any non-baselined finding is reported (2 on
// load errors). A finding can be suppressed with a comment on the same
// line or on the line directly above it:
//
//	//xyvet:ignore rule[,rule...] optional justification
//
// or allowlisted in a committed baseline file (-baseline), regenerated
// with -write-baseline, so a new strict rule can land without blocking
// unrelated work while the baseline is burned down to zero. A rule named
// by an ignore comment that suppresses nothing is itself a finding
// (staleignore), which only the baseline can allowlist.
//
// The rules are documented in docs/STATIC_ANALYSIS.md and exercised by
// the fixture packages under cmd/xyvet/testdata/src.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// options configures one driver run.
type options struct {
	json          bool   // emit findings as a JSON array instead of text lines
	verbose       bool   // per-rule timing and load phases to stderr
	baseline      string // path of a baseline file allowlisting findings
	writeBaseline string // write current findings to this baseline file and report none
}

func main() {
	var opts options
	flag.BoolVar(&opts.json, "json", false, "emit findings as a JSON array on stdout")
	flag.BoolVar(&opts.verbose, "v", false, "print load and per-rule timing to stderr")
	flag.StringVar(&opts.baseline, "baseline", "", "allowlist the findings recorded in this `file`; only new findings fail the run")
	flag.StringVar(&opts.writeBaseline, "write-baseline", "", "write the current findings to this `file` as a baseline and exit 0")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: xyvet [flags] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Runs the project analyzers over the given package patterns\n")
		fmt.Fprintf(os.Stderr, "(defaulting to ./...). Patterns are go list patterns naming\n")
		fmt.Fprintf(os.Stderr, "packages of the current module; dir/... walks a subtree.\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "xyvet:", err)
		os.Exit(2)
	}
	n, err := run(os.Stdout, cwd, patterns, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xyvet:", err)
		os.Exit(2)
	}
	if n > 0 {
		os.Exit(1)
	}
}

// run loads every package matched by patterns (resolved in dir, as go
// list resolves them) plus the in-module dependency closure, applies all
// analyzers and prints the surviving findings. It returns the number of
// findings not covered by the baseline (when one is configured).
func run(out io.Writer, dir string, patterns []string, opts options) (int, error) {
	timing := &ruleTiming{}
	t0 := time.Now()
	pkgs, root, err := load(dir, patterns)
	if err != nil {
		return 0, err
	}
	timing.add("(load)", time.Since(t0))

	for _, pkg := range pkgs {
		if pkg.Analyzed && len(pkg.TypeErrors) > 0 {
			// Analysis runs on whatever type information was recovered,
			// but a broken package can hide findings from every rule that
			// needs resolved objects — say so rather than exiting 0
			// silently. The build step of the CI gate rejects the package
			// anyway.
			fmt.Fprintf(os.Stderr, "xyvet: %s: %d type error(s), analysis may be incomplete (first: %v)\n",
				relPath(root, pkg.Dir), len(pkg.TypeErrors), pkg.TypeErrors[0])
		}
	}

	var lines []string
	if findings := analyzeAll(pkgs, timing); len(findings) > 0 {
		lines = renderFindings(pkgs[0].Fset, root, findings)
	}

	if opts.verbose {
		for _, e := range timing.snapshot() {
			fmt.Fprintf(os.Stderr, "xyvet: %-14s %8.1fms\n", e.Name, float64(e.D.Microseconds())/1000)
		}
	}

	if opts.writeBaseline != "" {
		if err := writeBaselineFile(opts.writeBaseline, lines); err != nil {
			return 0, err
		}
		fmt.Fprintf(os.Stderr, "xyvet: wrote %d finding(s) to %s\n", len(lines), opts.writeBaseline)
		return 0, nil
	}

	if opts.baseline != "" {
		allowed, err := readBaselineFile(opts.baseline)
		if err != nil {
			return 0, err
		}
		var fresh []string
		baselined := 0
		for _, l := range lines {
			if allowed[l] > 0 {
				allowed[l]--
				baselined++
				continue
			}
			fresh = append(fresh, l)
		}
		stale := 0
		for _, n := range allowed {
			stale += n
		}
		if baselined > 0 {
			fmt.Fprintf(os.Stderr, "xyvet: %d finding(s) suppressed by baseline %s\n", baselined, opts.baseline)
		}
		if stale > 0 {
			fmt.Fprintf(os.Stderr, "xyvet: %d stale baseline entr(ies) in %s no longer match a finding; regenerate with -write-baseline\n", stale, opts.baseline)
		}
		lines = fresh
	}

	if opts.json {
		if err := writeJSON(out, lines); err != nil {
			return 0, err
		}
	} else {
		for _, l := range lines {
			fmt.Fprintln(out, l)
		}
	}
	return len(lines), nil
}
