package core_test

import (
	"fmt"
	"sort"

	"xymon/internal/core"
)

// The worked example of Section 4.2: the structure of Figure 4 receives a
// document that raised atomic events {a1, a3, a5} and detects the four
// complex events contained in it.
func ExampleMatcher_Match() {
	m := core.NewMatcher()
	m.Add(10, []core.Event{1, 3})     // c10: a1 a3
	m.Add(3, []core.Event{1, 3, 5})   // c3:  a1 a3 a5
	m.Add(201, []core.Event{1, 3, 4}) // c201: a1 a3 a4
	m.Add(15, []core.Event{3})        // c15: a3
	m.Add(4, []core.Event{5})         // c4:  a5
	m.Add(9, []core.Event{1, 7})      // c9:  a1 a7

	matched := m.Match(core.EventSet{1, 3, 5})
	sort.Slice(matched, func(i, j int) bool { return matched[i] < matched[j] })
	fmt.Println(matched)
	// Output: [3 4 10 15]
}

func ExampleCanonical() {
	fmt.Println(core.Canonical([]core.Event{9, 3, 9, 1, 3}))
	// Output: [1 3 9]
}
