package sublang

import "testing"

// The class table, condition by condition; the weak events of Section 5.1
// are document-wide, and no kind is left to fall into a class by accident.
func TestConditionClass(t *testing.T) {
	want := map[CondKind]Class{
		CondURLEquals: ClassIdentity, CondDOCID: ClassIdentity,
		CondURLExtends: ClassLocation, CondFilename: ClassLocation, CondDTD: ClassLocation,
		CondDTDID: ClassLocation, CondDomain: ClassLocation,
		CondSelfChange: ClassDocument, CondLastAccessed: ClassDocument, CondLastUpdate: ClassDocument,
		CondSelfContains: ClassContent, CondElement: ClassContent,
	}
	for k := CondURLExtends; k <= CondElement; k++ {
		c := Condition{Kind: k}
		class, listed := want[k]
		if !listed {
			t.Errorf("%s: not in the expected table", k)
		} else if c.Class() != class {
			t.Errorf("%s: class %d, want %d", k, c.Class(), class)
		}
		if c.Weak() && c.Class() != ClassDocument {
			t.Errorf("%s is weak but not document-wide", k)
		}
	}
	if !(ClassIdentity < ClassLocation && ClassLocation < ClassDocument && ClassDocument < ClassContent && ClassContent < NumClasses) {
		t.Error("classes are out of order")
	}
}
