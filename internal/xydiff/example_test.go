package xydiff_test

import (
	"fmt"

	"xymon/internal/xmldom"
	"xymon/internal/xydiff"
)

// Two versions of a catalog: the delta lists the price update and the
// inserted product, and applying it to the old version reconstructs the
// new one — the XyDelta invariant of Section 5.2.
func ExampleDiff() {
	old := xmldom.MustParse(`<catalog><product><name>radio</name><price>10</price></product></catalog>`)
	new := xmldom.MustParse(`<catalog><product><name>radio</name><price>12</price></product><product><name>tv</name></product></catalog>`)

	delta, _ := xydiff.Diff(old, new)
	fmt.Println(len(delta.Ops), "operations")

	rebuilt, _ := xydiff.Apply(old, delta)
	fmt.Println(rebuilt.XML() == new.XML())
	// Output:
	// 2 operations
	// true
}

func ExampleClassify() {
	old := xmldom.MustParse(`<catalog><product>radio</product></catalog>`)
	new := xmldom.MustParse(`<catalog><product>radio</product><product>tv</product></catalog>`)
	delta, _ := xydiff.Diff(old, new)
	cl := xydiff.Classify(new, delta)
	for _, n := range cl.NewElems {
		fmt.Println("new:", n.Data, n.TextContent())
	}
	// Output: new: product tv
}
