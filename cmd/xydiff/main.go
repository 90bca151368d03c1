// Command xydiff computes the XyDelta between two versions of an XML
// document (Section 5.2): it prints the delta as XML, an annotated
// track-changes view of the new version, and verifies the XyDelta
// invariant old + delta = new.
//
//	xydiff [-annotate] [-quiet] old.xml new.xml
package main

import (
	"flag"
	"fmt"
	"os"

	"xymon/internal/xmldom"
	"xymon/internal/xydiff"
)

var (
	annotate = flag.Bool("annotate", true, "print the annotated change view")
	quiet    = flag.Bool("quiet", false, "print nothing; exit status 1 when the versions differ")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: xydiff [-annotate] [-quiet] old.xml new.xml")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	old, err := parseFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	new, err := parseFile(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	delta, err := xydiff.Diff(old, new)
	if err != nil {
		fatal(err)
	}
	if *quiet {
		if delta.Empty() {
			return
		}
		os.Exit(1)
	}
	if delta.Empty() {
		fmt.Println("documents are identical")
		return
	}
	fmt.Printf("%d operation(s)\n\n", len(delta.Ops))
	fmt.Println(delta.RenderXML("document").XML())
	if *annotate {
		fmt.Println()
		fmt.Print(xydiff.AnnotateText(new, delta))
	}
	// Verify the XyDelta invariant before trusting the output.
	rebuilt, err := xydiff.Apply(old, delta)
	if err != nil {
		fatal(fmt.Errorf("apply failed: %w", err))
	}
	if rebuilt.XML() != new.XML() {
		fatal(fmt.Errorf("internal error: old + delta does not reproduce the new version"))
	}
}

func parseFile(path string) (*xmldom.Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc, err := xmldom.ParseBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "xydiff: %v\n", err)
	os.Exit(1)
}
