package pubsub_test

import (
	"sort"
	"testing"

	"xymon/pubsub"
)

// TestPublicSurface exercises the whole re-exported API end to end:
// dynamic matcher, canonicalisation, partitioning and TCP sharding.
func TestPublicSurface(t *testing.T) {
	m := pubsub.NewMatcher()
	if err := m.Add(1, []pubsub.Event{1, 3}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := m.Add(2, []pubsub.Event{3}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := m.Add(1, []pubsub.Event{9}); err != pubsub.ErrDuplicateComplexID {
		t.Errorf("duplicate Add = %v", err)
	}
	if err := m.Add(3, nil); err != pubsub.ErrEmptyComplexEvent {
		t.Errorf("empty Add = %v", err)
	}
	s := pubsub.Canonical([]pubsub.Event{3, 1, 3})
	got := m.Match(s)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Match = %v", got)
	}

	// Partitioned.
	part := pubsub.NewPartitioned(2, false)
	part.Add(1, []pubsub.Event{1, 3})
	part.Add(2, []pubsub.Event{3})
	if len(part.Match(s)) != 2 {
		t.Error("partitioned matcher disagrees")
	}

	// TCP sharding: two empty blocks, the subscriptions added through the
	// client.
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, err := pubsub.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	client, err := pubsub.Dial(addrs...)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	for _, sub := range []struct {
		id     pubsub.ComplexID
		events []pubsub.Event
	}{{1, []pubsub.Event{1, 3}}, {2, []pubsub.Event{3}}} {
		if err := client.Add(sub.id, sub.events); err != nil {
			t.Fatalf("client Add: %v", err)
		}
	}
	remote, err := client.Match(s)
	if err != nil || len(remote) != 2 {
		t.Errorf("remote Match = %v, %v", remote, err)
	}
}

// TestDialFailure pins Dial's contract: a block nobody listens on fails
// the dial instead of yielding a client that starts degraded.
func TestDialFailure(t *testing.T) {
	srv, err := pubsub.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	if _, err := pubsub.Dial(srv.Addr(), "127.0.0.1:1"); err == nil {
		t.Error("Dial with a dead port should fail")
	}
}
