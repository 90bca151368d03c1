package baseline

import (
	"math/rand"
	"sort"
	"testing"

	"xymon/internal/core"
	"xymon/internal/manager"
)

// matchers returns one of each implementation behind the common interface.
func matchers() map[string]manager.Matcher {
	return map[string]manager.Matcher{
		"naive":    NewNaive(),
		"counting": NewCounting(),
		"aes":      core.NewMatcher(),
	}
}

func sorted(ids []core.ComplexID) []core.ComplexID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestBaselinesBasic(t *testing.T) {
	for name, m := range matchers() {
		t.Run(name, func(t *testing.T) {
			if err := m.Add(1, []core.Event{1, 3}); err != nil {
				t.Fatalf("Add: %v", err)
			}
			if err := m.Add(2, []core.Event{3}); err != nil {
				t.Fatalf("Add: %v", err)
			}
			if err := m.Add(3, []core.Event{1, 4}); err != nil {
				t.Fatalf("Add: %v", err)
			}
			got := sorted(m.MatchAppend(nil, core.EventSet{1, 3}))
			if len(got) != 2 || got[0] != 1 || got[1] != 2 {
				t.Errorf("Match = %v, want [1 2]", got)
			}
			if m.Len() != 3 {
				t.Errorf("Len = %d, want 3", m.Len())
			}
		})
	}
}

func TestBaselinesErrors(t *testing.T) {
	for name, m := range matchers() {
		t.Run(name, func(t *testing.T) {
			if err := m.Add(1, nil); err != core.ErrEmptyComplexEvent {
				t.Errorf("Add(empty) = %v, want ErrEmptyComplexEvent", err)
			}
			if err := m.Add(1, []core.Event{2}); err != nil {
				t.Fatalf("Add: %v", err)
			}
			if err := m.Add(1, []core.Event{3}); err != core.ErrDuplicateComplexID {
				t.Errorf("duplicate Add = %v, want ErrDuplicateComplexID", err)
			}
			if err := m.Remove(99, nil); err != core.ErrUnknownComplexID {
				t.Errorf("Remove(unknown) = %v, want ErrUnknownComplexID", err)
			}
			if err := m.Remove(1, []core.Event{2}); err != nil {
				t.Errorf("Remove: %v", err)
			}
			if m.Len() != 0 {
				t.Errorf("Len = %d, want 0", m.Len())
			}
		})
	}
}

// TestImplementationsAgree cross-checks all three matchers on random
// workloads with churn: they must always produce identical match sets.
func TestImplementationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	impls := matchers()
	const universe = 120
	nextID := core.ComplexID(0)
	live := map[core.ComplexID][]core.Event{}
	for step := 0; step < 2000; step++ {
		switch {
		case len(live) == 0 || rng.Float64() < 0.4:
			arity := 1 + rng.Intn(5)
			events := make([]core.Event, arity)
			for i := range events {
				events[i] = core.Event(rng.Intn(universe))
			}
			for name, m := range impls {
				if err := m.Add(nextID, events); err != nil {
					t.Fatalf("%s.Add: %v", name, err)
				}
			}
			live[nextID] = events
			nextID++
		case rng.Float64() < 0.3:
			for id, events := range live {
				for name, m := range impls {
					if err := m.Remove(id, events); err != nil {
						t.Fatalf("%s.Remove: %v", name, err)
					}
				}
				delete(live, id)
				break
			}
		default:
			n := rng.Intn(20)
			events := make([]core.Event, n)
			for i := range events {
				events[i] = core.Event(rng.Intn(universe))
			}
			s := core.Canonical(events)
			want := sorted(impls["naive"].MatchAppend(nil, s))
			for _, name := range []string{"counting", "aes"} {
				got := sorted(impls[name].MatchAppend(nil, s))
				if len(got) != len(want) {
					t.Fatalf("step %d: %s.Match(%v) = %v, naive = %v", step, name, s, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("step %d: %s.Match(%v) = %v, naive = %v", step, name, s, got, want)
					}
				}
			}
		}
	}
}
