package main

import "strconv"

// stdXML is the import path the rule forbids, spelled so that a grep for
// the quoted path finds only the files that import it.
const stdXML = "encoding/" + "xml"

// runRawxml flags encoding/xml imports in every non-test file. The ingest
// hot path parses with the hand-rolled byte tokenizer (xmldom.ParseBytes)
// and screens documents with the streaming pre-filter before any DOM
// exists; an encoding/xml decoder smuggled in anywhere would reintroduce
// exactly the per-token allocations that path removed, invisibly to the
// benchmarks. Serialisation is covered too (Node.XML,
// xmldom.AppendEscaped), so no production code has a legitimate need for
// the package. Tests are exempt because the loader skips _test.go files:
// internal/xmldom's tests keep the stdlib decoder as their differential
// oracle.
func runRawxml(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || path != stdXML {
				continue
			}
			out = append(out, Finding{
				Pos:  imp.Pos(),
				Rule: "rawxml",
				Msg:  "import of encoding/xml outside tests; use xmldom.ParseBytes / Node.XML / AppendEscaped so the zero-copy ingest path cannot silently regress",
			})
		}
	}
	return out
}
