//go:build ignore

package buildtags

import "fmt"

// Shout redeclares the Shout of buildtags.go: a type error, were this
// file loaded.
func Shout(v int) {
	fmt.Println("ignored", v)
}
