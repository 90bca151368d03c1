// Package rawxml is the fixture for the rawxml analyzer: encoding/xml
// must not be imported outside tests — the ingest path parses with the
// byte tokenizer, and a stray stdlib decoder would bring back the
// per-token allocations it removed.
package rawxml

import (
	"encoding/xml" // want rawxml
	"strings"
)

// Decode uses the forbidden decoder; the import is the finding, not the
// use, so one import is one finding however often it is used.
func Decode(src string) ([]xml.Token, error) {
	d := xml.NewDecoder(strings.NewReader(src))
	var toks []xml.Token
	for {
		tok, err := d.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return toks, nil
			}
			return nil, err
		}
		toks = append(toks, xml.CopyToken(tok))
	}
}
