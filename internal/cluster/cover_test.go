package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"xymon/internal/core"
)

// routesFor builds the routing snapshot a client adopting m would use,
// without dialing anything.
func routesFor(t *testing.T, m Map) *routes {
	t.Helper()
	c := NewRingClientWithMap(m)
	t.Cleanup(func() { c.Close() })
	rt := c.rt.Load()
	if rt == nil {
		t.Fatalf("map v%d with %d partitions was not adopted", m.Version, len(m.Assign))
	}
	return rt
}

// randomMap builds a map of 1–6 blocks at R 1–3 and parks a few joining
// destinations on it, as a transition map carries them.
func randomMap(rng *rand.Rand) Map {
	n := 1 + rng.Intn(6)
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.0.%d.%d:7000", rng.Intn(200), i)
	}
	m := BuildMap(1+uint64(rng.Intn(9)), 1+rng.Intn(3), addrs)
	m.Joining = map[int][]string{}
	for j := rng.Intn(8); j > 0; j-- {
		p := rng.Intn(NumPartitions)
		m.Joining[p] = append(m.Joining[p], fmt.Sprintf("10.9.9.%d:7000", j))
	}
	return m
}

// firstReplicaBlocks is the rule the cover plan replaced, kept as the
// yardstick: every needed partition goes to its first replica that has not
// failed. It returns how many distinct blocks that asks.
func firstReplicaBlocks(m Map, need uint64, failed map[string]bool) int {
	asked := map[string]bool{}
	for ; need != 0; need &= need - 1 {
		for _, addr := range m.Assign[bits.TrailingZeros64(need)] {
			if !failed[addr] {
				asked[addr] = true
				break
			}
		}
	}
	return len(asked)
}

// TestCoverPlanProperties holds the planner to its contract over random
// maps, needs and failed sets.
func TestCoverPlanProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	coverBlocks, firstBlocks := 0, 0
	for trial := 0; trial < 400; trial++ {
		m := randomMap(rng)
		rt := routesFor(t, m)
		for doc := 0; doc < 25; doc++ {
			var need uint64
			for k := 1 + rng.Intn(20); k > 0; k-- {
				need |= 1 << rng.Intn(NumPartitions)
			}
			// The failed blocks enter the way they do mid-match: as legs
			// that came back with an error.
			failed := map[string]bool{}
			var legs []leg
			for i, bc := range rt.conns {
				if rng.Intn(4) == 0 {
					failed[bc.addr] = true
					legs = append(legs, leg{block: i, err: errors.New("down")})
				}
			}
			nFailed := len(legs)
			legs, left := rt.cover(legs, need, rng.Uint32())
			plan := legs[nFailed:]

			var got uint64
			for _, l := range plan {
				addr := rt.conns[l.block].addr
				if failed[addr] {
					t.Fatalf("plan asks failed block %s", addr)
				}
				if l.parts == 0 || l.parts&got != 0 || l.parts&^need != 0 {
					t.Fatalf("leg %#x overlaps %#x or strays outside need %#x", l.parts, got, need)
				}
				got |= l.parts
				for ps := l.parts; ps != 0; ps &= ps - 1 {
					if p := bits.TrailingZeros64(ps); !m.Hosts(p, addr) {
						t.Fatalf("partition %d asked of %s, which does not host it (joining: %v)", p, addr, m.Joining[p])
					}
				}
			}
			if got|left != need || got&left != 0 {
				t.Fatalf("assigned %#x + left %#x is not need %#x", got, left, need)
			}
			for ps := left; ps != 0; ps &= ps - 1 {
				for _, addr := range m.Assign[bits.TrailingZeros64(ps)] {
					if !failed[addr] {
						t.Fatalf("partition %d left over though %s is live", bits.TrailingZeros64(ps), addr)
					}
				}
			}
			for i, bc := range rt.conns {
				if !failed[bc.addr] && rt.masks[i]&need == need && len(plan) != 1 {
					t.Fatalf("%s hosts all of %#x but the plan has %d legs", bc.addr, need, len(plan))
				}
			}
			coverBlocks += len(plan)
			firstBlocks += firstReplicaBlocks(m, need, failed)
		}
	}
	if coverBlocks >= firstBlocks {
		t.Fatalf("cover plans asked %d blocks, the first-replica rule %d: want strictly fewer", coverBlocks, firstBlocks)
	}
	t.Logf("blocks asked over the sample: cover %d, first replica %d", coverBlocks, firstBlocks)
}

// ringOf starts n dynamic blocks at replication r behind a static map,
// loads nSubs subscriptions through a ring client and mirrors them into an
// in-process matcher.
func ringOf(t testing.TB, n, r, nSubs int, rng *rand.Rand) (*RingClient, []*Server, *core.Matcher) {
	t.Helper()
	servers := make([]*Server, n)
	addrs := make([]string, n)
	for i := range servers {
		srv, err := ServeDynamic("127.0.0.1:0", nil)
		if err != nil {
			t.Fatalf("ServeDynamic: %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		servers[i], addrs[i] = srv, srv.Addr()
	}
	rc := NewRingClientWithMap(BuildMap(1, r, addrs), fastOpts()...)
	t.Cleanup(func() { rc.Close() })
	ref := core.NewMatcher()
	for id := 0; id < nSubs; id++ {
		events := []core.Event{core.Event(rng.Intn(60)), core.Event(rng.Intn(60)), core.Event(60 + rng.Intn(20))}
		if err := rc.Add(core.ComplexID(id), events); err != nil {
			t.Fatalf("Add(%d): %v", id, err)
		}
		if err := ref.Add(core.ComplexID(id), events); err != nil {
			t.Fatal(err)
		}
	}
	return rc, servers, ref
}

func randomSet(rng *rand.Rand) core.EventSet {
	events := make([]core.Event, 3+rng.Intn(12))
	for i := range events {
		events[i] = core.Event(rng.Intn(80))
	}
	return core.Canonical(events)
}

// TestCoverSpreadsReads checks the rotating tie-break: at R = N every block
// hosts everything, every plan is one block, and the blocks share the
// requests.
func TestCoverSpreadsReads(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rc, servers, ref := ringOf(t, 3, 3, 60, rng)
	const docs = 3000
	for i := 0; i < docs; i++ {
		set := randomSet(rng)
		res, err := rc.MatchResult(set)
		if err != nil || res.Degraded || !sameIDs(res.IDs, ref.Match(set)) {
			t.Fatalf("MatchResult(%v) = %+v, %v; reference %v", set, res, err, ref.Match(set))
		}
	}
	total := uint64(0)
	for _, srv := range servers {
		calls := srv.matcher.Stats().MatchCalls
		total += calls
		if share := float64(calls) / docs; share < 0.25 || share > 0.42 {
			t.Errorf("block %s answered %.0f%% of the requests, want 25–42%%", srv.Addr(), 100*share)
		}
	}
	if total != docs {
		t.Errorf("%d documents cost %d block matches, want one each", docs, total)
	}
}

// TestCoverDifferentialUnderKills compares every result with an
// in-process matcher while blocks are killed and revived between calls.
// At R = 2 of 3 at most one block is down at a time, so every result must
// be complete and undegraded.
func TestCoverDifferentialUnderKills(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rc, servers, ref := ringOf(t, 3, 2, 150, rng)
	down := -1
	for i := 0; i < 600; i++ {
		if i%40 == 20 {
			down = rng.Intn(len(servers))
			servers[down].Close()
		}
		if i%40 == 0 && down >= 0 {
			// Revive on the same address with the same subscriptions.
			dyn := core.NewMatcher()
			ref.Range(func(id core.ComplexID, set core.EventSet) bool {
				if rc.Map().Hosts(PartitionOf(set), servers[down].Addr()) {
					if err := dyn.Add(id, set); err != nil {
						t.Fatal(err)
					}
				}
				return true
			})
			srv, err := ServeDynamic(servers[down].Addr(), dyn)
			if err != nil {
				t.Fatalf("revive %s: %v", servers[down].Addr(), err)
			}
			t.Cleanup(func() { srv.Close() })
			servers[down], down = srv, -1
			rc.Probe()
		}
		set := randomSet(rng)
		res, err := rc.MatchResult(set)
		if err != nil || res.Degraded {
			t.Fatalf("doc %d (block down: %d): %+v, %v", i, down, res, err)
		}
		if want := ref.Match(set); !sameIDs(res.IDs, want) {
			t.Fatalf("doc %d (block down: %d): got %v, reference %v", i, down, res.IDs, want)
		}
	}
	if st := rc.Stats(); st.Failovers == 0 || st.Degraded != 0 {
		t.Fatalf("kills produced %d failovers and %d degraded matches", st.Failovers, st.Degraded)
	}
}

// TestFailoversCountPartitions pins the counter's unit: a failed block
// that was asked for k partitions adds k when they move to another
// replica, and nothing when there is no replica left to move them to.
func TestFailoversCountPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rc, servers, _ := ringOf(t, 2, 2, 10, rng)
	servers[0].Close()
	moves := 0
	for i := 0; i < 2; i++ { // the rotation asks the dead block first once
		set := randomSet(rng)
		before := rc.Stats().Failovers
		if res, err := rc.MatchResult(set); err != nil || res.Degraded {
			t.Fatalf("match with one of two replicas down: %+v, %v", res, err)
		}
		if moved := rc.Stats().Failovers - before; moved != 0 {
			if k := uint64(bits.OnesCount64(neededPartitions(set))); moved != k {
				t.Fatalf("failed block was asked for %d partitions, Failovers grew by %d", k, moved)
			}
			moves++
		}
	}
	if moves != 1 {
		t.Fatalf("two matches at R = N = 2 asked the dead block %d times, want once", moves)
	}

	// Both down: the partitions move once, to the other replica; when that
	// fails too there is nowhere left and the counter stands still.
	servers[1].Close()
	set := randomSet(rng)
	before := rc.Stats().Failovers
	if _, err := rc.MatchResult(set); err == nil {
		t.Fatal("match with every block down returned no error")
	}
	if moved, k := rc.Stats().Failovers-before, uint64(bits.OnesCount64(neededPartitions(set))); moved != k {
		t.Fatalf("every block down: Failovers grew by %d for %d partitions, want one move each", moved, k)
	}
}

// TestMatchResultAllocCeiling holds the request path's allocation budget
// with client and server in one process: a match costs the result slice
// and nothing per frame, partition or event — 58 objects before the path
// was stripped.
func TestMatchResultAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(1))
	rc, _, ref := ringOf(t, 2, 2, 400, rng)
	var sets []core.EventSet // only sets that match: each result costs its slice
	for len(sets) < 64 {
		if set := randomSet(rng); len(ref.Match(set)) > 0 {
			sets = append(sets, set)
		}
	}
	match := func(i int) {
		res, err := rc.MatchResult(sets[i%len(sets)])
		if err != nil || res.Degraded || len(res.IDs) == 0 {
			t.Fatalf("MatchResult: %+v, %v", res, err)
		}
	}
	for i := 0; i < 4*len(sets); i++ { // let every buffer reach its working capacity
		match(i)
	}
	i := 0
	perMatch := testing.AllocsPerRun(500, func() { match(i); i++ })
	if perMatch > 10 {
		t.Errorf("MatchResult allocates %.1f objects per match (client and server), ceiling 10", perMatch)
	}
	t.Logf("%.2f objects per match", perMatch)
}

// TestConcurrentMatchBesideWritesAndAdoption runs MatchResult callers
// beside Add/Remove and repeated map adoptions; run under -race it checks
// the routing snapshot is the only thing they share unlocked.
func TestConcurrentMatchBesideWritesAndAdoption(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rc, _, ref := ringOf(t, 3, 2, 120, rng)
	base := rc.Map()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				set := randomSet(rng)
				res, err := rc.MatchResult(set)
				if err != nil || res.Degraded {
					t.Errorf("MatchResult: %+v, %v", res, err)
					return
				}
				// The churned ids are ≥ 1000; the stable base must be exact.
				var stable []core.ComplexID
				for _, id := range res.IDs {
					if id < 1000 {
						stable = append(stable, id)
					}
				}
				if want := ref.Match(set); !sameIDs(stable, want) {
					t.Errorf("stable ids %v, reference %v", stable, want)
					return
				}
			}
		}(int64(g))
	}
	for i := 0; i < 300; i++ {
		id := core.ComplexID(1000 + i%7)
		events := []core.Event{core.Event(i % 60), core.Event(60 + i%20)}
		if err := rc.Add(id, events); err != nil {
			t.Fatalf("Add: %v", err)
		}
		if i%10 == 0 {
			next := base.Clone()
			next.Version = base.Version + uint64(i/10)
			rc.adopt(next)
		}
		if err := rc.Remove(id, events); err != nil {
			t.Fatalf("Remove: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

// referenceMatchFrame is the parent's 'm' frame encoder, kept to hold the
// direct encoder to byte-identical output.
func referenceMatchFrame(ver uint64, parts, events []uint32) []byte {
	payload := binary.LittleEndian.AppendUint64(nil, ver)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(parts)))
	for _, v := range append(append([]uint32(nil), parts...), events...) {
		payload = binary.LittleEndian.AppendUint32(payload, v)
	}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeBlob(w, kindMatch, payload); err != nil {
		panic(err)
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestMatchFrameWire checks the direct encoder against the parent's
// frames, the decoder against the encoder, and the decoder's bounds.
func TestMatchFrameWire(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		set := randomSet(rng)
		if trial%50 == 0 {
			set = make(core.EventSet, 3000) // a frame larger than the bufio buffer
			for i := range set {
				set[i] = core.Event(7 * i)
			}
		}
		mask := neededPartitions(set) & rng.Uint64()
		var parts, events []uint32
		for ps := mask; ps != 0; ps &= ps - 1 {
			parts = append(parts, uint32(bits.TrailingZeros64(ps)))
		}
		for _, e := range set {
			events = append(events, uint32(e))
		}
		ver := rng.Uint64()
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeMatch(w, ver, mask, set); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if want := referenceMatchFrame(ver, parts, events); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("frame for (v%d, %v, %d events) differs from the parent's encoding", ver, parts, len(events))
		}
		gotVer, gotMask, gotSet, err := decodeMatch(buf.Bytes()[5:], nil)
		if err != nil || gotVer != ver || gotMask != mask || !slices.Equal(gotSet, []core.Event(set)) {
			t.Fatalf("decode = v%d %#x %v, %v; sent v%d %#x %v", gotVer, gotMask, gotSet, err, ver, mask, set)
		}
	}

	frame := func(np uint32, words ...uint32) []byte {
		b := binary.LittleEndian.AppendUint64(nil, 1)
		b = binary.LittleEndian.AppendUint32(b, np)
		for _, v := range words {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	for name, payload := range map[string][]byte{
		"short":                   {1, 2, 3},
		"partition id 64":         frame(1, 64, 5),
		"partition id 2^32-1":     frame(2, 3, 1<<32-1, 5),
		"more partitions than 64": frame(65, make([]uint32, 65)...),
		"count past the payload":  frame(3, 1, 2),
		"ragged event bytes":      append(frame(1, 9, 5), 0xff),
	} {
		if _, _, _, err := decodeMatch(payload, nil); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: decodeMatch = %v, want ErrProtocol", name, err)
		}
	}
	if _, parts, events, err := decodeMatch(frame(2, 63, 0, 5, 4), nil); err != nil || parts != 1<<63|1 || len(events) != 2 {
		t.Errorf("partitions 63 and 0 = %#x %v, %v", parts, events, err)
	}
}

// TestServerRejectsOutOfRangePartition sends partition 64 to a block with
// no map installed — where it used to fold onto partition 0 — and to a
// block given an unsorted event set, which must still be canonicalised.
func TestServerRejectsOutOfRangePartition(t *testing.T) {
	dyn := core.NewMatcher()
	set := core.EventSet{3, 9}
	if err := dyn.Add(1, set); err != nil {
		t.Fatal(err)
	}
	srv, err := ServeDynamic("127.0.0.1:0", dyn)
	if err != nil {
		t.Fatalf("ServeDynamic: %v", err)
	}
	defer srv.Close()
	bc := &blockConn{addr: srv.Addr()}
	defer bc.close()
	cfg, st := newClientConfig(fastOpts()), &netStats{}
	ask := func(parts []uint32, events []uint32) ([]core.ComplexID, error) {
		var ids []core.ComplexID
		payload := referenceMatchFrame(1, parts, events)[5:]
		err := bc.call(&cfg, st,
			func(w *bufio.Writer) error { return writeBlob(w, kindMatch, payload) },
			func(r *bufio.Reader) (err error) {
				ids, _, err = readMatchReply(r, &bc.buf, nil)
				return err
			})
		return ids, err
	}
	p := uint32(PartitionOf(set))
	var remote *RemoteError
	if _, err := ask([]uint32{p + NumPartitions}, []uint32{3, 9}); !errors.As(err, &remote) {
		t.Fatalf("partition %d = %v, want the block's protocol error", p+NumPartitions, err)
	}
	if ids, err := ask([]uint32{p}, []uint32{9, 3, 9}); err != nil || len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("unsorted set with duplicates = %v, %v; want [1]", ids, err)
	}
	if ids, err := ask([]uint32{(p + 1) % NumPartitions}, []uint32{3, 9}); err != nil || len(ids) != 0 {
		t.Fatalf("match filtered to another partition = %v, %v; want nothing", ids, err)
	}
}
