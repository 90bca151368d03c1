package core

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// figure4Matcher builds the exact structure of Figure 4 in the paper.
func figure4Matcher(t *testing.T) *Matcher {
	t.Helper()
	m := NewMatcher()
	defs := map[ComplexID][]Event{
		0:   {0},       // c0: a0
		10:  {1, 3},    // c10: a1 a3
		201: {1, 3, 4}, // c201: a1 a3 a4
		3:   {1, 3, 5}, // c3: a1 a3 a5
		43:  {1, 5, 6}, // c43: a1 a5 a6
		25:  {1, 5, 8}, // c25: a1 a5 a8
		9:   {1, 7},    // c9: a1 a7
		527: {2},       // c527: a2
		15:  {3},       // c15: a3
		4:   {5},       // c4: a5
		7:   {5, 6},    // c7: a5 a6
		11:  {5, 7},    // c11: a5 a7
		50:  {5, 8},    // c50: a5 a8
		60:  {8, 9},    // c60: a8 a9
		13:  {8, 12},   // c13: a8 a12
		31:  {99, 101}, // c31: a99 a101
	}
	for id, events := range defs {
		if err := m.Add(id, events); err != nil {
			t.Fatalf("Add(%d, %v): %v", id, events, err)
		}
	}
	return m
}

func sortedMatch(m *Matcher, s EventSet) []ComplexID {
	out := m.Match(s)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []ComplexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPaperWorkedExample replays the walk-through of Section 4.2: the
// document with atomic events {a1, a3, a5} triggers exactly the four
// complex events c10, c3, c15 and c4.
func TestPaperWorkedExample(t *testing.T) {
	m := figure4Matcher(t)
	got := sortedMatch(m, EventSet{1, 3, 5})
	want := []ComplexID{3, 4, 10, 15}
	if !equalIDs(got, want) {
		t.Errorf("Match({a1,a3,a5}) = %v, want %v", got, want)
	}
}

func TestFigure4Cases(t *testing.T) {
	m := figure4Matcher(t)
	cases := []struct {
		in   EventSet
		want []ComplexID
	}{
		{EventSet{0}, []ComplexID{0}},
		{EventSet{2}, []ComplexID{527}},
		{EventSet{1}, nil},               // a1 alone is not a complex event
		{EventSet{1, 7}, []ComplexID{9}}, // chain a1→a7
		{EventSet{1, 3, 4}, []ComplexID{10, 15, 201}},
		{EventSet{5, 8}, []ComplexID{4, 50}},
		{EventSet{8, 9}, []ComplexID{60}},
		{EventSet{8, 12}, []ComplexID{13}},
		{EventSet{9, 12}, nil}, // both present but never together with a8
		{EventSet{99, 101}, []ComplexID{31}},
		{EventSet{99}, nil},
		{EventSet{101}, nil},
		{EventSet{1, 5, 6, 8}, []ComplexID{4, 7, 25, 43, 50}},
		{EventSet{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12}, []ComplexID{0, 3, 4, 7, 9, 10, 11, 13, 15, 25, 43, 50, 60, 201, 527}},
		{nil, nil},
	}
	for _, c := range cases {
		got := sortedMatch(m, c.in)
		if !equalIDs(got, c.want) {
			t.Errorf("Match(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAddErrors(t *testing.T) {
	m := NewMatcher()
	if err := m.Add(1, nil); err != ErrEmptyComplexEvent {
		t.Errorf("Add(empty) = %v, want ErrEmptyComplexEvent", err)
	}
	if err := m.Add(1, []Event{5}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := m.Add(1, []Event{6}); err != ErrDuplicateComplexID {
		t.Errorf("duplicate Add = %v, want ErrDuplicateComplexID", err)
	}
}

func TestAddUncanonicalInput(t *testing.T) {
	m := NewMatcher()
	if err := m.Add(1, []Event{9, 3, 9, 1}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if got := m.Definition(1); !got.Equal(EventSet{1, 3, 9}) {
		t.Errorf("Definition = %v, want {1,3,9}", got)
	}
	if got := m.Match(EventSet{1, 3, 9}); len(got) != 1 || got[0] != 1 {
		t.Errorf("Match = %v, want [1]", got)
	}
}

func TestRemove(t *testing.T) {
	m := figure4Matcher(t)
	before := m.Stats()
	// Removing c3 (a1 a3 a5) must keep c10 (a1 a3) and c201 (a1 a3 a4) intact.
	if err := m.Remove(3, []Event{1, 3, 5}); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	got := sortedMatch(m, EventSet{1, 3, 4, 5})
	want := []ComplexID{4, 10, 15, 201}
	if !equalIDs(got, want) {
		t.Errorf("after Remove(3): Match = %v, want %v", got, want)
	}
	if err := m.Remove(3, []Event{1, 3, 5}); err != ErrUnknownComplexID {
		t.Errorf("second Remove = %v, want ErrUnknownComplexID", err)
	}
	after := m.Stats()
	if after.Complex != before.Complex-1 {
		t.Errorf("Complex = %d, want %d", after.Complex, before.Complex-1)
	}
	if after.Cells >= before.Cells {
		t.Errorf("Cells = %d, want < %d (leaf cell pruned)", after.Cells, before.Cells)
	}
}

func TestRemoveAllRestoresEmptyStructure(t *testing.T) {
	m := figure4Matcher(t)
	ids := []ComplexID{0, 10, 201, 3, 43, 25, 9, 527, 15, 4, 7, 11, 50, 60, 13, 31}
	for _, id := range ids {
		if err := m.Remove(id, m.Definition(id)); err != nil {
			t.Fatalf("Remove(%d): %v", id, err)
		}
	}
	st := m.Stats()
	if st.Complex != 0 || st.Cells != 0 || st.Atomic != 0 {
		t.Errorf("after removing all: %+v, want empty", st)
	}
	if st.Tables != 1 {
		t.Errorf("Tables = %d, want 1 (root remains)", st.Tables)
	}
	if got := m.Match(EventSet{1, 3, 5}); len(got) != 0 {
		t.Errorf("Match on empty structure = %v, want none", got)
	}
}

func TestRemoveKeepsSharedPrefixes(t *testing.T) {
	m := NewMatcher()
	mustAdd(t, m, 1, []Event{1, 2})
	mustAdd(t, m, 2, []Event{1, 2, 3})
	if err := m.Remove(1, []Event{1, 2}); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if got := m.Match(EventSet{1, 2, 3}); len(got) != 1 || got[0] != 2 {
		t.Errorf("Match = %v, want [2]", got)
	}
	// And the other direction: removing the longer one keeps the shorter.
	mustAdd(t, m, 1, []Event{1, 2})
	if err := m.Remove(2, []Event{1, 2, 3}); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if got := m.Match(EventSet{1, 2, 3}); len(got) != 1 || got[0] != 1 {
		t.Errorf("Match = %v, want [1]", got)
	}
}

func TestReAddAfterRemove(t *testing.T) {
	m := NewMatcher()
	mustAdd(t, m, 7, []Event{4, 5})
	if err := m.Remove(7, []Event{4, 5}); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	mustAdd(t, m, 7, []Event{4, 5})
	if got := m.Match(EventSet{4, 5}); len(got) != 1 || got[0] != 7 {
		t.Errorf("Match = %v, want [7]", got)
	}
}

func TestDuplicateMarksOnSamePrefix(t *testing.T) {
	// Two distinct subscriptions can compile to the same event set.
	m := NewMatcher()
	mustAdd(t, m, 1, []Event{2, 4})
	mustAdd(t, m, 2, []Event{2, 4})
	got := sortedMatch(m, EventSet{2, 4})
	if !equalIDs(got, []ComplexID{1, 2}) {
		t.Errorf("Match = %v, want [1 2]", got)
	}
	if err := m.Remove(1, []Event{2, 4}); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	got = sortedMatch(m, EventSet{2, 4})
	if !equalIDs(got, []ComplexID{2}) {
		t.Errorf("Match = %v, want [2]", got)
	}
}

func TestStatsAndMemoryEstimate(t *testing.T) {
	m := figure4Matcher(t)
	st := m.Stats()
	if st.Complex != 16 {
		t.Errorf("Complex = %d, want 16", st.Complex)
	}
	if st.Atomic != 13 { // a0..a9, a12, a99, a101
		t.Errorf("Atomic = %d, want 13", st.Atomic)
	}
	if st.MaxDepth != 3 {
		t.Errorf("MaxDepth = %d, want 3", st.MaxDepth)
	}
	if m.MemoryEstimate() <= 0 {
		t.Error("MemoryEstimate should be positive")
	}
	m.Match(EventSet{1, 3, 5})
	st = m.Stats()
	if st.MatchCalls == 0 || st.CellProbes == 0 || st.MatchedSets == 0 {
		t.Errorf("match statistics not recorded: %+v", st)
	}
}

func TestMatchAppendReusesBuffer(t *testing.T) {
	m := figure4Matcher(t)
	buf := make([]ComplexID, 0, 32)
	out := m.MatchAppend(buf, EventSet{1, 3, 5})
	if len(out) != 4 {
		t.Fatalf("MatchAppend returned %d matches, want 4", len(out))
	}
	if cap(out) != cap(buf) {
		t.Errorf("MatchAppend reallocated despite sufficient capacity")
	}
}

// TestMatcherAgainstBruteForce is the central property test: on random
// workloads the hash-tree must return exactly the set of registered complex
// events contained in the input set.
func TestMatcherAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		universe := 50 + rng.Intn(200)
		nComplex := 1 + rng.Intn(300)
		m := NewMatcher()
		defs := make(map[ComplexID]EventSet)
		for id := ComplexID(0); int(id) < nComplex; id++ {
			arity := 1 + rng.Intn(5)
			events := make([]Event, arity)
			for i := range events {
				events[i] = Event(rng.Intn(universe))
			}
			set := Canonical(events)
			defs[id] = set
			if err := m.Add(id, events); err != nil {
				t.Fatalf("Add: %v", err)
			}
		}
		for doc := 0; doc < 20; doc++ {
			s := randomSet(rng, 25, universe)
			got := sortedMatch(m, s)
			var want []ComplexID
			for id, set := range defs {
				if s.ContainsAll(set) {
					want = append(want, id)
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if !equalIDs(got, want) {
				t.Fatalf("trial %d: Match(%v) = %v, want %v", trial, s, got, want)
			}
		}
	}
}

// TestMatcherChurnAgainstBruteForce interleaves adds, removes and matches.
func TestMatcherChurnAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewMatcher()
	defs := make(map[ComplexID]EventSet)
	nextID := ComplexID(0)
	const universe = 60
	for step := 0; step < 3000; step++ {
		switch {
		case len(defs) == 0 || rng.Float64() < 0.45:
			arity := 1 + rng.Intn(4)
			events := make([]Event, arity)
			for i := range events {
				events[i] = Event(rng.Intn(universe))
			}
			if err := m.Add(nextID, events); err != nil {
				t.Fatalf("Add: %v", err)
			}
			defs[nextID] = Canonical(events)
			nextID++
		case rng.Float64() < 0.5:
			// remove a random registered id
			for id := range defs {
				if err := m.Remove(id, defs[id]); err != nil {
					t.Fatalf("Remove: %v", err)
				}
				delete(defs, id)
				break
			}
		default:
			s := randomSet(rng, 12, universe)
			got := sortedMatch(m, s)
			var want []ComplexID
			for id, set := range defs {
				if s.ContainsAll(set) {
					want = append(want, id)
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if !equalIDs(got, want) {
				t.Fatalf("step %d: Match(%v) = %v, want %v", step, s, got, want)
			}
		}
	}
	if m.Len() != len(defs) {
		t.Errorf("Len = %d, want %d", m.Len(), len(defs))
	}
}

// TestConcurrentMatchDuringChurn exercises the RWMutex discipline: many
// readers match while a writer adds and removes. Run with -race.
func TestConcurrentMatchDuringChurn(t *testing.T) {
	m := NewMatcher()
	for id := ComplexID(0); id < 500; id++ {
		mustAdd(t, m, id, []Event{Event(id % 97), Event(id % 89), Event(id % 83)})
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := randomSet(rng, 20, 100)
				m.Match(s)
			}
		}(int64(w))
	}
	for id := ComplexID(500); id < 1500; id++ {
		mustAdd(t, m, id, []Event{Event(id % 97), Event(id % 79)})
		if id%2 == 0 {
			if err := m.Remove(id-400, nil); err != nil {
				t.Errorf("Remove(%d): %v", id-400, err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func mustAdd(t *testing.T, m *Matcher, id ComplexID, events []Event) {
	t.Helper()
	if err := m.Add(id, events); err != nil {
		t.Fatalf("Add(%d, %v): %v", id, events, err)
	}
}

// TestParallelMatchStats drives MatchAppend from many goroutines at once
// and checks the sharded counters fold to exact totals. Under -race this
// also proves the stats path performs no locked (or unsynchronised) shared
// writes: every update is an atomic on a shard, every read a fold.
func TestParallelMatchStats(t *testing.T) {
	m := NewMatcher()
	for id := ComplexID(0); id < 200; id++ {
		mustAdd(t, m, id, []Event{Event(id % 31), Event(id%31 + 40)})
	}
	const (
		workers = 8
		iters   = 500
	)
	matched := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []ComplexID
			for i := 0; i < iters; i++ {
				s := EventSet{Event(i % 31), Event(i%31 + 40)}
				buf = m.MatchAppend(buf[:0], s)
				if len(buf) > 0 {
					matched[w]++
				}
				// Interleave snapshots with matches: Stats must never
				// tear or race with the shard updates.
				if i%64 == 0 {
					m.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	st := m.Stats()
	if st.MatchCalls != workers*iters {
		t.Errorf("MatchCalls = %d, want %d", st.MatchCalls, workers*iters)
	}
	var wantMatched uint64
	for _, n := range matched {
		wantMatched += n
	}
	if st.MatchedSets != wantMatched {
		t.Errorf("MatchedSets = %d, want %d", st.MatchedSets, wantMatched)
	}
	if st.CellProbes == 0 {
		t.Error("CellProbes = 0 after parallel matching")
	}
}

// TestMatchAppendCountsOnlyNewMatches pins the MatchedSets semantics: a
// call that appends nothing to a non-empty destination buffer is not a
// matched set.
func TestMatchAppendCountsOnlyNewMatches(t *testing.T) {
	m := NewMatcher()
	mustAdd(t, m, 1, []Event{5})
	buf := m.MatchAppend(nil, EventSet{5})
	if len(buf) != 1 {
		t.Fatalf("MatchAppend = %v", buf)
	}
	buf = m.MatchAppend(buf, EventSet{99}) // no match, reused buffer
	if len(buf) != 1 {
		t.Fatalf("MatchAppend after miss = %v", buf)
	}
	st := m.Stats()
	if st.MatchCalls != 2 || st.MatchedSets != 1 {
		t.Errorf("MatchCalls=%d MatchedSets=%d, want 2 and 1", st.MatchCalls, st.MatchedSets)
	}
}
