package xmldom

// Test files may import the stdlib decoder — as an oracle, say — and
// draw no finding: the loader never reads them.
import "encoding/xml"

var _ = xml.NewDecoder
