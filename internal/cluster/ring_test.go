package cluster

import (
	"testing"

	"xymon/internal/core"
)

// TestBuildMapReplication checks every partition gets min(R, blocks)
// distinct replicas drawn from the member list.
func TestBuildMapReplication(t *testing.T) {
	blocks := []string{"a:1", "b:1", "c:1", "d:1"}
	m := BuildMap(1, 2, blocks)
	if m.Version != 1 || m.Replicas != 2 {
		t.Fatalf("map header = v%d R=%d", m.Version, m.Replicas)
	}
	if len(m.Assign) != NumPartitions {
		t.Fatalf("Assign has %d partitions", len(m.Assign))
	}
	for p, owners := range m.Assign {
		if len(owners) != 2 {
			t.Fatalf("partition %d has %d replicas, want 2", p, len(owners))
		}
		if owners[0] == owners[1] {
			t.Fatalf("partition %d lists the same replica twice: %v", p, owners)
		}
		for _, o := range owners {
			if !containsAddr(blocks, o) {
				t.Fatalf("partition %d assigned to non-member %s", p, o)
			}
		}
	}
	// R capped by membership.
	solo := BuildMap(1, 3, []string{"only:1"})
	for p, owners := range solo.Assign {
		if len(owners) != 1 {
			t.Fatalf("solo map partition %d has %d replicas", p, len(owners))
		}
	}
}

// TestBuildMapDeterministicAndBalanced pins that the assignment is a
// pure function of the member list and spreads primaries across blocks.
func TestBuildMapDeterministicAndBalanced(t *testing.T) {
	blocks := []string{"c:1", "a:1", "b:1"}
	m1 := BuildMap(5, 2, blocks)
	m2 := BuildMap(5, 2, []string{"b:1", "c:1", "a:1"}) // order-independent
	for p := range m1.Assign {
		if m1.Assign[p][0] != m2.Assign[p][0] || m1.Assign[p][1] != m2.Assign[p][1] {
			t.Fatalf("partition %d differs across builds: %v vs %v", p, m1.Assign[p], m2.Assign[p])
		}
	}
	primaries := map[string]int{}
	for _, owners := range m1.Assign {
		primaries[owners[0]]++
	}
	for _, b := range m1.Blocks {
		if primaries[b] == 0 {
			t.Errorf("block %s owns no primary partition: %v", b, primaries)
		}
	}
}

// TestRendezvousMinimalMovement checks the property the whole transfer
// design rests on: adding one block only moves partitions onto the new
// block, never shuffles ownership among the old ones.
func TestRendezvousMinimalMovement(t *testing.T) {
	old := BuildMap(1, 2, []string{"a:1", "b:1", "c:1"})
	next := BuildMap(2, 2, []string{"a:1", "b:1", "c:1", "d:1"})
	for _, mv := range movesBetween(old, next) {
		if mv.To != "d:1" {
			t.Errorf("join of d:1 moved partition %d to %s", mv.Part, mv.To)
		}
		if mv.From == "" {
			t.Errorf("move of partition %d has no source", mv.Part)
		}
	}
	if moves := movesBetween(old, old); len(moves) != 0 {
		t.Errorf("identity transition lists %d moves", len(moves))
	}
	// Bootstrap: no old assignment means no copies, only promotions.
	for _, mv := range movesBetween(Map{}, old) {
		if mv.From != "" {
			t.Errorf("bootstrap move of partition %d claims source %s", mv.Part, mv.From)
		}
	}
}

// TestPartitionOfUsesMinimalEvent pins the routing invariant: a
// subscription lives in the partition of its minimal event, so a match
// for document set s only needs the partitions of s's own events.
func TestPartitionOfUsesMinimalEvent(t *testing.T) {
	set := core.Canonical([]core.Event{9, 4, 7})
	if got, want := PartitionOf(set), PartitionOfEvent(4); got != want {
		t.Fatalf("PartitionOf = %d, want partition of minimal event %d", got, want)
	}
	if PartitionOf(nil) != 0 {
		t.Fatal("empty set should map to partition 0")
	}
	// Events spread over many partitions (sanity on the hash).
	seen := map[int]bool{}
	for e := core.Event(0); e < 1000; e++ {
		seen[PartitionOfEvent(e)] = true
	}
	if len(seen) < NumPartitions/2 {
		t.Errorf("1000 events hit only %d partitions", len(seen))
	}
}

// TestMapWireRoundtrip checks Encode/DecodeMap and the shape validation.
func TestMapWireRoundtrip(t *testing.T) {
	m := BuildMap(7, 2, []string{"a:1", "b:1"})
	m.Joining = map[int][]string{3: {"c:1"}}
	got, err := DecodeMap(m.Encode())
	if err != nil {
		t.Fatalf("DecodeMap: %v", err)
	}
	if got.Version != 7 || len(got.Assign) != NumPartitions || got.Joining[3][0] != "c:1" {
		t.Fatalf("roundtrip lost data: %+v", got)
	}
	if !got.Hosts(3, got.Assign[3][0]) || got.Hosts(3, "c:1") {
		t.Fatal("Hosts must cover Assign and exclude Joining")
	}
	wt := got.WriteTargets(3)
	if !containsAddr(wt, "c:1") || len(wt) != 3 {
		t.Fatalf("WriteTargets(3) = %v, want both replicas plus the joining dest", wt)
	}
	if _, err := DecodeMap([]byte(`{"version":1,"assign":[[]]}`)); err == nil {
		t.Fatal("DecodeMap accepted a map with the wrong partition count")
	}
	if _, err := DecodeMap([]byte("not json")); err == nil {
		t.Fatal("DecodeMap accepted garbage")
	}
}

// TestNeededPartitions checks the client-side routing mask is exactly the
// distinct partitions of the document's events.
func TestNeededPartitions(t *testing.T) {
	set := core.Canonical([]core.Event{1, 2, 3, 100, 1000})
	var want uint64
	for _, e := range set {
		want |= 1 << PartitionOfEvent(e)
	}
	if got := neededPartitions(set); got != want || got == 0 {
		t.Fatalf("neededPartitions = %#x, want %#x", got, want)
	}
	if got := neededPartitions(nil); got != 0 {
		t.Fatalf("empty set needs partitions %#x", got)
	}
}
