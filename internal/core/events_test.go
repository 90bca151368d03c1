package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCanonicalSortsAndDedups(t *testing.T) {
	cases := []struct {
		in   []Event
		want EventSet
	}{
		{nil, nil},
		{[]Event{}, nil},
		{[]Event{5}, EventSet{5}},
		{[]Event{5, 5, 5}, EventSet{5}},
		{[]Event{3, 1, 2}, EventSet{1, 2, 3}},
		{[]Event{9, 1, 9, 1, 4}, EventSet{1, 4, 9}},
		{[]Event{0, 0}, EventSet{0}},
	}
	for _, c := range cases {
		got := Canonical(c.in)
		if !got.Equal(c.want) {
			t.Errorf("Canonical(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCanonicalDoesNotMutateInput(t *testing.T) {
	in := []Event{3, 1, 2}
	Canonical(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Canonical mutated its input: %v", in)
	}
}

func TestCanonicalPropertyAlwaysCanonical(t *testing.T) {
	f := func(raw []uint32) bool {
		events := make([]Event, len(raw))
		for i, v := range raw {
			events[i] = Event(v % 1000)
		}
		return Canonical(events).IsCanonical()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCanonicalMatchesMapReference: on random inputs drawn from a small
// range, so duplicates are common, Canonical holds exactly the distinct
// values in increasing order, and Contains agrees with membership.
func TestCanonicalMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 1000; trial++ {
		in := make([]Event, rng.Intn(40))
		have := make(map[Event]bool)
		for i := range in {
			in[i] = Event(rng.Intn(24))
			have[in[i]] = true
		}
		got := Canonical(in)
		var want EventSet
		for e := Event(0); e < 24; e++ {
			if have[e] {
				want = append(want, e)
			}
		}
		if !got.Equal(want) {
			t.Fatalf("Canonical(%v) = %v, want %v", in, got, want)
		}
		for e := Event(0); e < 26; e++ {
			if got.Contains(e) != have[e] {
				t.Fatalf("Canonical(%v).Contains(%d) = %v, want %v", in, e, !have[e], have[e])
			}
		}
	}
}

func TestIsCanonical(t *testing.T) {
	if !(EventSet{}).IsCanonical() {
		t.Error("empty set should be canonical")
	}
	if !(EventSet{1, 2, 3}).IsCanonical() {
		t.Error("{1,2,3} should be canonical")
	}
	if (EventSet{1, 1}).IsCanonical() {
		t.Error("{1,1} should not be canonical")
	}
	if (EventSet{2, 1}).IsCanonical() {
		t.Error("{2,1} should not be canonical")
	}
}

func TestContains(t *testing.T) {
	s := EventSet{2, 5, 9}
	for _, e := range []Event{2, 5, 9} {
		if !s.Contains(e) {
			t.Errorf("Contains(%d) = false, want true", e)
		}
	}
	for _, e := range []Event{0, 1, 3, 6, 10} {
		if s.Contains(e) {
			t.Errorf("Contains(%d) = true, want false", e)
		}
	}
}

func TestContainsAll(t *testing.T) {
	s := EventSet{1, 3, 5, 7, 9}
	cases := []struct {
		sub  EventSet
		want bool
	}{
		{nil, true},
		{EventSet{1}, true},
		{EventSet{9}, true},
		{EventSet{1, 9}, true},
		{EventSet{3, 5, 7}, true},
		{EventSet{1, 3, 5, 7, 9}, true},
		{EventSet{2}, false},
		{EventSet{1, 2}, false},
		{EventSet{1, 3, 5, 7, 9, 11}, false},
		{EventSet{0, 1}, false},
	}
	for _, c := range cases {
		if got := s.ContainsAll(c.sub); got != c.want {
			t.Errorf("ContainsAll(%v) = %v, want %v", c.sub, got, c.want)
		}
	}
}

func TestContainsAllPropertyMatchesMapSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		s := randomSet(rng, 30, 100)
		sub := randomSet(rng, 5, 100)
		want := true
		have := make(map[Event]bool, len(s))
		for _, e := range s {
			have[e] = true
		}
		for _, e := range sub {
			if !have[e] {
				want = false
				break
			}
		}
		if got := s.ContainsAll(sub); got != want {
			t.Fatalf("ContainsAll(%v, %v) = %v, want %v", s, sub, got, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	s := EventSet{1, 2, 3}
	c := s.Clone()
	c[0] = 99
	if s[0] != 1 {
		t.Error("Clone shares storage with original")
	}
	if (EventSet)(nil).Clone() != nil {
		t.Error("Clone(nil) should be nil")
	}
}

// randomSet draws up to maxLen events from [0, universe) and returns the
// canonical form, mirroring the experiment setup of Section 4.2 where
// "atomic events are randomly drawn in the set 0..Card(A)-1".
func randomSet(rng *rand.Rand, maxLen, universe int) EventSet {
	n := rng.Intn(maxLen + 1)
	events := make([]Event, n)
	for i := range events {
		events[i] = Event(rng.Intn(universe))
	}
	return Canonical(events)
}
