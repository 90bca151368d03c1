package main

import (
	"go/ast"
	"strings"
)

// runHashcache flags direct hash/fnv constructor calls outside
// internal/xmldom. The project's structural hashing lives in xmldom
// (HashFold/HashString for strings and bytes, Document.Hashes and
// Node.SubtreeHash for trees, one subtree fold for both): those fold
// inline with no hasher object, and the document-level vector is computed
// once per version and cached. A fresh fnv.New64a on a
// hot path both allocates per call and silently diverges from the cached
// hashes the diff layer compares — the exact per-call cost the hash-cache
// work removed from xydiff.
//
// internal/xmldom is exempt: it owns the primitives and the tests pinning
// them bit-identical to hash/fnv.
func runHashcache(pkg *Package) []Finding {
	if strings.HasSuffix(pkg.Path, "/internal/xmldom") {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := pkgFuncCall(pkg, call, "hash/fnv")
			if !ok || !strings.HasPrefix(name, "New") {
				return true
			}
			out = append(out, Finding{
				Pos:  call.Pos(),
				Rule: "hashcache",
				Msg:  "direct fnv." + name + " outside internal/xmldom; use xmldom.HashString/HashFold (Document.Hashes or Node.SubtreeHash for trees, StreamHasher for raw bytes) so hashes stay cached and comparable",
			})
			return true
		})
	}
	return out
}
