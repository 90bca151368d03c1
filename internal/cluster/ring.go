package cluster

import (
	"encoding/json"
	"fmt"
	"sort"

	"xymon/internal/core"
	"xymon/internal/xmldom"
)

// NumPartitions is the fixed number of subscription partitions the
// cluster spreads over its blocks. Subscriptions hash to partitions by
// their minimal atomic event (the event that heads their prefix chain in
// the matcher), and partitions map to replica groups of blocks through a
// rendezvous hash — so a block joining or leaving moves only the
// partitions whose replica set actually changes, never reshuffles the
// whole base. The count is a protocol constant: every map version
// assigns exactly these partitions.
const NumPartitions = 64

// PartitionOfEvent returns the partition owning the subscriptions whose
// minimal atomic event is e. A document's event set can only trigger
// subscriptions headed by events it contains, so the partitions a match
// must consult are exactly {PartitionOfEvent(e) : e ∈ set}.
func PartitionOfEvent(e core.Event) int {
	var b [4]byte
	b[0], b[1], b[2], b[3] = byte(e), byte(e>>8), byte(e>>16), byte(e>>24)
	return int(xmldom.HashString(string(b[:])) % NumPartitions)
}

// PartitionOf returns the partition of a subscription with the given
// canonical definition: the partition of its minimal event.
func PartitionOf(set core.EventSet) int {
	if len(set) == 0 {
		return 0
	}
	return PartitionOfEvent(set[0])
}

// Map is one version of the cluster's partition assignment. Maps are
// immutable values: the coordinator builds a new one (Version+1) for
// every membership change and installs it on the blocks; clients learn
// of new versions through stale-map rejections, from the block that
// rejected them.
type Map struct {
	// Version increases by one per installed transition. Version 0 is
	// "no map": a block without an installed map serves anything (the
	// single-block bootstrap), a client without one cannot route.
	Version uint64 `json:"version"`
	// Replicas is the target replication factor R. Partitions hold
	// min(R, len(Blocks)) replicas.
	Replicas int `json:"replicas"`
	// Blocks lists the member block addresses, sorted.
	Blocks []string `json:"blocks"`
	// Assign lists, per partition, the replica addresses that fully host
	// it, in rendezvous order. Any of them may serve a read: the ring
	// client picks the fewest blocks that cover a document's partitions.
	Assign [][]string `json:"assign"`
	// Joining lists, per partition (by index key), destination blocks
	// mid-handoff: they receive every write (the double-write that keeps
	// no match window uncovered) but do not serve reads until the
	// transfer commits and promotes them into Assign.
	Joining map[int][]string `json:"joining,omitempty"`
}

// BuildMap assigns every partition to min(replicas, len(blocks)) blocks
// by rendezvous (highest-random-weight) hashing: per partition, blocks
// are ranked by a hash of (block, partition) and the top R win. Two maps
// built from overlapping member lists therefore agree on every partition
// whose winning set is unchanged — the minimal-movement property the
// coordinator's transitions rely on.
func BuildMap(version uint64, replicas int, blocks []string) Map {
	if replicas < 1 {
		replicas = 1
	}
	m := Map{Version: version, Replicas: replicas}
	m.Blocks = append([]string(nil), blocks...)
	sort.Strings(m.Blocks)
	m.Assign = make([][]string, NumPartitions)
	if len(m.Blocks) == 0 {
		return m
	}
	r := replicas
	if r > len(m.Blocks) {
		r = len(m.Blocks)
	}
	type scored struct {
		addr  string
		score uint64
	}
	ranked := make([]scored, len(m.Blocks))
	for p := 0; p < NumPartitions; p++ {
		for i, addr := range m.Blocks {
			ranked[i] = scored{addr: addr, score: rendezvousScore(addr, p)}
		}
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].score != ranked[j].score {
				return ranked[i].score > ranked[j].score
			}
			return ranked[i].addr < ranked[j].addr
		})
		owners := make([]string, r)
		for i := 0; i < r; i++ {
			owners[i] = ranked[i].addr
		}
		m.Assign[p] = owners
	}
	return m
}

// rendezvousScore is the FNV-1a weight of one (block, partition) pair.
// The partition byte is hashed first: FNV only avalanches bytes through
// the multiplications that follow them, so folding the partition in last
// would perturb ~2⁴⁸ of the 2⁶⁴ range and one block would win every
// partition.
func rendezvousScore(addr string, part int) uint64 {
	return xmldom.HashFold(xmldom.HashString(string([]byte{byte(part), '#'})), addr)
}

// Hosts reports whether addr fully hosts partition p (serves reads).
func (m Map) Hosts(p int, addr string) bool {
	if p < 0 || p >= len(m.Assign) {
		return false
	}
	for _, a := range m.Assign[p] {
		if a == addr {
			return true
		}
	}
	return false
}

// WriteTargets returns every block that must observe a write to
// partition p: the assigned replicas plus any joining destinations.
func (m Map) WriteTargets(p int) []string {
	if p < 0 || p >= len(m.Assign) {
		return nil
	}
	targets := append([]string(nil), m.Assign[p]...)
	for _, a := range m.Joining[p] {
		if !containsAddr(targets, a) {
			targets = append(targets, a)
		}
	}
	return targets
}

func containsAddr(addrs []string, addr string) bool {
	for _, a := range addrs {
		if a == addr {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of m, safe to mutate.
func (m Map) Clone() Map {
	out := m
	out.Blocks = append([]string(nil), m.Blocks...)
	out.Assign = make([][]string, len(m.Assign))
	for i, owners := range m.Assign {
		out.Assign[i] = append([]string(nil), owners...)
	}
	if m.Joining != nil {
		out.Joining = make(map[int][]string, len(m.Joining))
		for p, dests := range m.Joining {
			out.Joining[p] = append([]string(nil), dests...)
		}
	}
	return out
}

// Move is one pending partition copy of a map transition: partition Part
// must be copied from a current replica onto To before To may serve it.
type Move struct {
	Part int    `json:"part"`
	From string `json:"from"` // preferred source (a current replica)
	To   string `json:"to"`
}

// movesBetween lists the copies needed to go from old to next: for every
// partition, each block that next assigns and old did not must receive
// the partition's data from one of old's replicas. Dead sources are the
// caller's concern — it picks another replica from old.Assign[p] (that
// recovery is what R ≥ 2 buys).
func movesBetween(old, next Map) []Move {
	var moves []Move
	for p := 0; p < NumPartitions; p++ {
		var oldOwners []string
		if p < len(old.Assign) {
			oldOwners = old.Assign[p]
		}
		for _, dest := range next.Assign[p] {
			if containsAddr(oldOwners, dest) {
				continue
			}
			from := ""
			if len(oldOwners) > 0 {
				from = oldOwners[0]
			}
			moves = append(moves, Move{Part: p, From: from, To: dest})
		}
	}
	return moves
}

// Encode serialises the map as JSON (the wire and journal format).
func (m Map) Encode() []byte {
	b, err := json.Marshal(m)
	if err != nil {
		// A Map of strings and ints cannot fail to marshal.
		panic(err)
	}
	return b
}

// DecodeMap parses an encoded map and validates its shape.
func DecodeMap(data []byte) (Map, error) {
	var m Map
	if err := json.Unmarshal(data, &m); err != nil {
		return Map{}, fmt.Errorf("%w: bad partition map: %v", ErrProtocol, err)
	}
	if len(m.Assign) != NumPartitions {
		return Map{}, fmt.Errorf("%w: partition map with %d partitions, want %d", ErrProtocol, len(m.Assign), NumPartitions)
	}
	return m, nil
}
