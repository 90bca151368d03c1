// Package sublang implements the subscription language of Section 5: the
// lexer-backed parser, the AST, and the static checks (the weak/strong
// event rule and the resource-control restrictions of Section 5.4). A
// subscription bundles monitoring queries over the document flow,
// continuous queries over the warehouse, refresh statements, and a report
// specification, exactly as in the paper's MyXyleme example.
package sublang

import (
	"fmt"
	"strings"
	"time"

	"xymon/internal/xyquery"
)

// ChangeOp is an element- or document-level change pattern.
type ChangeOp int

const (
	// NoChange means the condition has no change pattern ("Category
	// contains electronic" monitors presence, not change).
	NoChange ChangeOp = iota
	// OpNew: the element or document is new.
	OpNew
	// OpUpdated: the element or document changed ("updated"/"modified").
	OpUpdated
	// OpUnchanged: the document was fetched and found identical.
	OpUnchanged
	// OpDeleted: the element or document disappeared.
	OpDeleted
)

func (o ChangeOp) String() string {
	switch o {
	case NoChange:
		return ""
	case OpNew:
		return "new"
	case OpUpdated:
		return "updated"
	case OpUnchanged:
		return "unchanged"
	case OpDeleted:
		return "deleted"
	}
	return fmt.Sprintf("ChangeOp(%d)", int(o))
}

// CondKind discriminates atomic conditions of a monitoring query's where
// clause. Each atomic condition maps to one atomic event (Section 5.1).
type CondKind int

const (
	// CondURLExtends: URL extends "prefix".
	CondURLExtends CondKind = iota
	// CondURLEquals: URL = "string".
	CondURLEquals
	// CondFilename: filename = "index.html" (tail of the URL).
	CondFilename
	// CondDTD: DTD = "url".
	CondDTD
	// CondDTDID: DTDID = integer.
	CondDTDID
	// CondDOCID: DOCID = integer.
	CondDOCID
	// CondDomain: domain = "biology" (semantic domain).
	CondDomain
	// CondLastAccessed: LastAccessed <comparator> date.
	CondLastAccessed
	// CondLastUpdate: LastUpdate <comparator> date.
	CondLastUpdate
	// CondSelfContains: self contains "word".
	CondSelfContains
	// CondSelfChange: <changeop> self — a weak event.
	CondSelfChange
	// CondElement: (<changeop>)? tag (strict)? (contains "word")? — the
	// element-level conditions meaningful for XML documents.
	CondElement
)

func (k CondKind) String() string {
	switch k {
	case CondURLExtends:
		return "URL extends"
	case CondURLEquals:
		return "URL ="
	case CondFilename:
		return "filename ="
	case CondDTD:
		return "DTD ="
	case CondDTDID:
		return "DTDID ="
	case CondDOCID:
		return "DOCID ="
	case CondDomain:
		return "domain ="
	case CondLastAccessed:
		return "LastAccessed"
	case CondLastUpdate:
		return "LastUpdate"
	case CondSelfContains:
		return "self contains"
	case CondSelfChange:
		return "self change"
	case CondElement:
		return "element"
	}
	return fmt.Sprintf("CondKind(%d)", int(k))
}

// Comparator for date conditions.
type Comparator int

const (
	// CmpEq is =.
	CmpEq Comparator = iota
	// CmpLt is <.
	CmpLt
	// CmpGt is >.
	CmpGt
	// CmpLe is <=.
	CmpLe
	// CmpGe is >=.
	CmpGe
)

func (c Comparator) String() string {
	switch c {
	case CmpEq:
		return "="
	case CmpLt:
		return "<"
	case CmpGt:
		return ">"
	case CmpLe:
		return "<="
	case CmpGe:
		return ">="
	}
	return "?"
}

// Condition is one atomic condition. The populated fields depend on Kind:
//
//	CondURLExtends/CondURLEquals/CondFilename/CondDTD/CondDomain: Str
//	CondDTDID/CondDOCID:                                          Num
//	CondLastAccessed/CondLastUpdate:                              Cmp, Date
//	CondSelfContains:                                             Str (the word)
//	CondSelfChange:                                               Change
//	CondElement: Change (may be NoChange), Tag or Var, Strict, Str (word, may be empty)
type Condition struct {
	Kind   CondKind
	Str    string
	Num    uint64
	Cmp    Comparator
	Date   time.Time
	Change ChangeOp
	Tag    string // element tag, resolved from Var during validation when needed
	Var    string // variable bound in the from clause, e.g. "new X"
	Strict bool
}

// Weak reports whether the condition is a weak event: a change pattern on
// the whole document (new/modified/unchanged self). Section 5.1 disallows
// where clauses made solely of weak conditions — otherwise nearly every
// fetched document would raise an alert.
func (c Condition) Weak() bool {
	return c.Kind == CondSelfChange
}

// Class ranks an atomic condition by how rarely a fetched document
// satisfies it. The manager allocates atomic-event codes in class order and
// the matcher (Section 4) stores every complex event along the numeric
// order of its codes, so the class decides which events key the root table
// and which are only looked up below a prefix that already held. This is
// the one place the policy lives; lower sorts first:
//
//	ClassIdentity  URL =, DOCID =                               one page
//	ClassLocation  URL extends, filename, DTD, DTDID, domain    a site or a document class
//	ClassDocument  <change> self, LastAccessed, LastUpdate      nearly every alert carries the same few
//	ClassContent   self contains, element conditions            dozens per page, shared across sites
//
// ClassDocument is the least selective, yet sits before ClassContent: it is
// a handful of events, so below a location prefix it costs a handful of
// cells. After content, every (prefix, word) cell of a `URL extends … and X
// contains … and modified self` query grows a one-entry child table:
// 33 433 tables against 1 351 on the 40 000-subscription fan-out base, at
// 203 probes a document against 183.
type Class uint8

const (
	ClassIdentity Class = iota
	ClassLocation
	ClassDocument
	ClassContent
	NumClasses
)

// Class returns the condition's selectivity class.
func (c Condition) Class() Class {
	switch c.Kind {
	case CondURLEquals, CondDOCID:
		return ClassIdentity
	case CondURLExtends, CondFilename, CondDTD, CondDTDID, CondDomain:
		return ClassLocation
	case CondSelfChange, CondLastAccessed, CondLastUpdate:
		return ClassDocument
	}
	return ClassContent
}

func (c Condition) String() string {
	switch c.Kind {
	case CondURLExtends:
		return fmt.Sprintf("URL extends %q", c.Str)
	case CondURLEquals:
		return fmt.Sprintf("URL = %q", c.Str)
	case CondFilename:
		return fmt.Sprintf("filename = %q", c.Str)
	case CondDTD:
		return fmt.Sprintf("DTD = %q", c.Str)
	case CondDTDID:
		return fmt.Sprintf("DTDID = %d", c.Num)
	case CondDOCID:
		return fmt.Sprintf("DOCID = %d", c.Num)
	case CondDomain:
		return fmt.Sprintf("domain = %q", c.Str)
	case CondLastAccessed:
		return fmt.Sprintf("LastAccessed %s %s", c.Cmp, c.Date.Format("2006-01-02"))
	case CondLastUpdate:
		return fmt.Sprintf("LastUpdate %s %s", c.Cmp, c.Date.Format("2006-01-02"))
	case CondSelfContains:
		return fmt.Sprintf("self contains %q", c.Str)
	case CondSelfChange:
		return fmt.Sprintf("%s self", c.Change)
	case CondElement:
		var b strings.Builder
		if c.Change != NoChange {
			b.WriteString(c.Change.String())
			b.WriteByte(' ')
		}
		if c.Tag != "" {
			b.WriteString(c.Tag)
		} else {
			b.WriteString(c.Var)
		}
		if c.Str != "" {
			if c.Strict {
				b.WriteString(" strict")
			}
			b.WriteString(fmt.Sprintf(" contains %q", c.Str))
		}
		return b.String()
	}
	return c.Kind.String()
}

// FromBinding binds a variable to a path inside the current document, as
// in `from self//Member X`.
type FromBinding struct {
	Path xyquery.Path
	Var  string
}

// SelectSpec describes a monitoring query's notification payload: either a
// literal XML element whose attributes reference built-in variables (URL,
// DATE, DOCID) or strings, or a variable bound in the from clause.
type SelectSpec struct {
	// Literal, when non-nil, is e.g. <UpdatedPage url=URL/>.
	Literal *LiteralElem
	// Var, when non-empty, returns the matched elements bound to the
	// variable, e.g. `select X`.
	Var string
}

// LiteralElem is the literal element form of a select clause. Children
// (the full select clause, which the paper's prototype had not finished —
// Section 7's "Xyleme Select module") mix fixed text and variable
// references expanded to the matched elements:
//
//	select <Offer url=URL>X</Offer>
type LiteralElem struct {
	Tag      string
	Attrs    []LiteralAttr
	Children []LiteralChild
}

// LiteralChild is one content item of a literal select element: a quoted
// string or a variable bound in the from clause.
type LiteralChild struct {
	Text  string
	Var   string // non-empty for variable references
	IsVar bool
}

// LiteralAttr is one attribute of a literal select element; its value is a
// quoted string or a built-in variable reference (URL, DATE, DOCID).
type LiteralAttr struct {
	Name  string
	Value string
	IsVar bool
}

// MonitoringQuery filters the flow of fetched documents (Section 5.1).
type MonitoringQuery struct {
	Select *SelectSpec
	From   []FromBinding
	Where  []Condition
}

// Label returns the notification name of the query: the select literal's
// tag, else the selected variable, else "notification". Report conditions
// (`UpdatedPage.count > 10`) and continuous-query triggers reference this
// label.
func (m *MonitoringQuery) Label() string {
	if m.Select != nil {
		if m.Select.Literal != nil {
			return m.Select.Literal.Tag
		}
		if m.Select.Var != "" {
			return m.Select.Var
		}
	}
	return "notification"
}

// Frequency is a named evaluation frequency.
type Frequency time.Duration

// Named frequencies of the paper's grammar.
const (
	Hourly   = Frequency(time.Hour)
	Daily    = Frequency(24 * time.Hour)
	BiWeekly = Frequency(84 * time.Hour) // twice a week
	Weekly   = Frequency(7 * 24 * time.Hour)
	Monthly  = Frequency(30 * 24 * time.Hour)
)

// ParseFrequency maps a frequency keyword to its duration.
func ParseFrequency(word string) (Frequency, bool) {
	switch strings.ToLower(word) {
	case "hourly":
		return Hourly, true
	case "daily":
		return Daily, true
	case "biweekly":
		return BiWeekly, true
	case "weekly":
		return Weekly, true
	case "monthly":
		return Monthly, true
	}
	return 0, false
}

// Duration converts the frequency to a time.Duration.
func (f Frequency) Duration() time.Duration { return time.Duration(f) }

func (f Frequency) String() string {
	switch f {
	case Hourly:
		return "hourly"
	case Daily:
		return "daily"
	case BiWeekly:
		return "biweekly"
	case Weekly:
		return "weekly"
	case Monthly:
		return "monthly"
	}
	return time.Duration(f).String()
}

// TriggerSpec tells when to evaluate a continuous query: on a frequency or
// when a named notification arrives (SubscriptionName.QueryLabel).
type TriggerSpec struct {
	Freq Frequency // zero when notification-triggered
	// NotifSub/NotifQuery reference a monitoring query, as in
	// `when XylemeCompetitors.ChangeInMyProducts`.
	NotifSub   string
	NotifQuery string
}

// ContinuousQuery re-evaluates a warehouse query on a schedule or trigger
// (Section 5.2). With Delta set, only changes of the result are reported.
type ContinuousQuery struct {
	Name  string
	Delta bool
	Query *xyquery.Query
	When  TriggerSpec
}

// ReportTermKind discriminates report-condition terms.
type ReportTermKind int

const (
	// TermImmediate: report as soon as a notification arrives.
	TermImmediate ReportTermKind = iota
	// TermCount: notifications.count > N.
	TermCount
	// TermTagCount: <QueryLabel>.count > N.
	TermTagCount
	// TermPeriodic: a frequency keyword.
	TermPeriodic
)

// ReportTerm is one disjunct of the report's when clause.
type ReportTerm struct {
	Kind  ReportTermKind
	Count int
	Tag   string
	Freq  Frequency
}

func (t ReportTerm) String() string {
	switch t.Kind {
	case TermImmediate:
		return "immediate"
	case TermCount:
		return fmt.Sprintf("notifications.count > %d", t.Count)
	case TermTagCount:
		return fmt.Sprintf("%s.count > %d", t.Tag, t.Count)
	case TermPeriodic:
		return t.Freq.String()
	}
	return "?"
}

// ReportSpec is the report part of a subscription (Section 5.3).
type ReportSpec struct {
	// Query post-processes the notification buffer; nil forwards it as-is.
	Query *xyquery.Query
	// When is a disjunction of terms; any true term triggers a report.
	When []ReportTerm
	// AtMostCount stops registering notifications past this count until
	// the next report (0 = unlimited).
	AtMostCount int
	// AtMostFreq caps report frequency (0 = uncapped).
	AtMostFreq Frequency
	// Archive keeps generated reports for this long (0 = no archiving).
	Archive Frequency
}

// RefreshStatement asks the crawler to revisit a page or prefix at least
// at the given frequency (Section 2.2 item 3).
type RefreshStatement struct {
	URL  string
	Freq Frequency
}

// VirtualRef subscribes to a monitoring or continuous query owned by
// another subscription (Section 5.4), as in `virtual MyXyleme.Member`.
type VirtualRef struct {
	Subscription string
	Query        string
}

// Subscription is a full parsed subscription.
type Subscription struct {
	Name       string
	Monitoring []*MonitoringQuery
	Continuous []*ContinuousQuery
	Report     *ReportSpec
	Refresh    []RefreshStatement
	Virtual    []VirtualRef
}
