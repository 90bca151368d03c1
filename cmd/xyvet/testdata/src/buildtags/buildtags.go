// Package buildtags checks that xyvet vets the files a build would
// compile: ignored.go, which its build constraint keeps out of every
// build, redeclares Shout and prints, and neither may surface.
package buildtags

import "fmt"

// Shout prints from a library package.
func Shout(v int) {
	fmt.Println("value", v) // want printcheck
}
