// Package xmldom stands in for the real internal/xmldom: the package
// that owns the byte tokenizer gets no exemption either.
package xmldom

import "encoding/xml" // want rawxml

// The blank variable keeps the import in use.
var _ xml.Name
