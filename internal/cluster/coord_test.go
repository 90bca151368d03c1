package cluster

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"xymon/internal/core"
	"xymon/internal/faults"
)

// fastOpts keeps test retries and cooldowns tight.
func fastOpts() []ClientOption {
	return []ClientOption{
		WithTimeouts(time.Second, time.Second),
		WithRetries(1),
		WithDownCooldown(5*time.Millisecond, 20*time.Millisecond),
	}
}

// testCluster is a coordinator plus dynamic blocks, ready for a ring
// client.
type testCluster struct {
	coord  *Coord
	blocks map[string]*Server
}

// startCluster boots a coordinator (journal in a temp dir) with n
// dynamic blocks joined, replication R.
func startRing(t *testing.T, n, replicas int) *testCluster {
	t.Helper()
	c, err := NewCoord(t.TempDir(), replicas, fastOpts()...)
	if err != nil {
		t.Fatalf("NewCoord: %v", err)
	}
	if err := c.ServeCoord("127.0.0.1:0"); err != nil {
		t.Fatalf("ServeCoord: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	tc := &testCluster{coord: c, blocks: make(map[string]*Server)}
	for i := 0; i < n; i++ {
		tc.addBlock(t)
	}
	return tc
}

// addBlock starts one dynamic block and joins it to the cluster.
func (tc *testCluster) addBlock(t *testing.T) *Server {
	t.Helper()
	srv, err := ServeDynamic("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("ServeDynamic: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	tc.blocks[srv.Addr()] = srv
	if err := tc.coord.Join(srv.Addr()); err != nil {
		t.Fatalf("Join(%s): %v", srv.Addr(), err)
	}
	return srv
}

// ringClient dials the cluster through the coordinator.
func (tc *testCluster) ringClient(t *testing.T, opts ...ClientOption) *RingClient {
	t.Helper()
	rc, err := DialRing(tc.coord.Addr(), append(fastOpts(), opts...)...)
	if err != nil {
		t.Fatalf("DialRing: %v", err)
	}
	t.Cleanup(func() { rc.Close() })
	return rc
}

// seedSubs adds n reference subscriptions through the ring client and
// mirrors them into a local matcher for ground truth.
func seedSubs(t *testing.T, rc *RingClient, n int) *core.Matcher {
	t.Helper()
	ref := core.NewMatcher()
	for i := 0; i < n; i++ {
		events := []core.Event{core.Event(i % 97), core.Event(i%31 + 100), core.Event(i%13 + 200)}
		if err := rc.Add(core.ComplexID(i), events); err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
		if err := ref.Add(core.ComplexID(i), events); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

// checkAgainstReference matches documents on the cluster and the local
// reference matcher and requires identical id sets. wantDegraded pins
// the expected degradation flag on every document.
func checkAgainstReference(t *testing.T, rc *RingClient, ref *core.Matcher, wantDegraded bool) {
	t.Helper()
	docs := [][]core.Event{
		{5, 105, 205}, {0, 100, 200}, {96, 130, 212}, {1, 2, 3, 101, 102, 201},
		{50, 115, 207, 9999}, {77, 120, 209},
	}
	// Wider documents as well: sixteen events span more partitions than
	// one block of three hosts, so their plans take two blocks and, over a
	// dozen of them, ask every block — which is what lets a test that
	// kills one block count on the kill being noticed.
	for i := 0; i < 12; i++ {
		var doc []core.Event
		for j := 0; j < 8; j++ {
			doc = append(doc, core.Event((i*13+j*7)%97), core.Event((i*5+j*3)%31+100))
		}
		docs = append(docs, doc)
	}
	for _, doc := range docs {
		set := core.Canonical(doc)
		want := ref.Match(set)
		res, err := rc.MatchResult(set)
		if err != nil {
			t.Fatalf("MatchResult(%v): %v", doc, err)
		}
		if res.Degraded != wantDegraded {
			t.Fatalf("MatchResult(%v).Degraded = %v, want %v (down: %v)", doc, res.Degraded, wantDegraded, res.Down)
		}
		if !sameIDs(res.IDs, want) {
			t.Fatalf("MatchResult(%v) = %v, reference says %v", doc, res.IDs, want)
		}
	}
}

func sameIDs(a, b []core.ComplexID) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[core.ComplexID]int, len(a))
	for _, id := range a {
		seen[id]++
	}
	for _, id := range b {
		seen[id]--
		if seen[id] < 0 {
			return false
		}
	}
	return true
}

// TestClusterAddMatchRemove is the happy path: subscriptions written
// through the ring client match identically to a local matcher, and
// removes take effect on every replica.
func TestClusterAddMatchRemove(t *testing.T) {
	tc := startRing(t, 3, 2)
	rc := tc.ringClient(t)
	ref := seedSubs(t, rc, 200)
	checkAgainstReference(t, rc, ref, false)

	for i := 0; i < 50; i++ {
		events := []core.Event{core.Event(i % 97), core.Event(i%31 + 100), core.Event(i%13 + 200)}
		if err := rc.Remove(core.ComplexID(i), events); err != nil {
			t.Fatalf("Remove(%d): %v", i, err)
		}
		if err := ref.Remove(core.ComplexID(i)); err != nil {
			t.Fatal(err)
		}
	}
	checkAgainstReference(t, rc, ref, false)
}

// TestFailoverBeforeDegrade is the acceptance bar of the replication
// work: with R=2, killing any single block must still return complete
// results with Degraded=false — every partition fails over to its
// surviving replica.
func TestFailoverBeforeDegrade(t *testing.T) {
	tc := startRing(t, 3, 2)
	rc := tc.ringClient(t)
	ref := seedSubs(t, rc, 150)
	checkAgainstReference(t, rc, ref, false)

	// Kill each block in turn (resurrecting none): exactly one failure at
	// a time, complete results throughout.
	var killed *Server
	for addr, srv := range tc.blocks {
		killed = srv
		srv.Close()
		checkAgainstReference(t, rc, ref, false)
		if st := rc.Stats(); st.Failovers == 0 {
			t.Fatalf("kill of %s produced no failovers: %+v", addr, st)
		}
		break
	}
	_ = killed

	// Evicting the dead block rebalances the survivors back to full
	// replication; matches stay complete and now need no failover.
	if err := tc.coord.Evict(killed.Addr()); err != nil {
		t.Fatalf("Evict: %v", err)
	}
	checkAgainstReference(t, rc, ref, false)
}

// TestBoundedDegradationAtRFailures pins the other side of the bar:
// killing R blocks at once may lose partitions, and the client must say
// so (Degraded=true with the dead blocks listed) rather than silently
// returning partial results — and must keep answering for the
// partitions that survive.
func TestBoundedDegradationAtRFailures(t *testing.T) {
	tc := startRing(t, 3, 2)
	rc := tc.ringClient(t)
	seedSubs(t, rc, 150)

	n := 0
	for _, srv := range tc.blocks {
		srv.Close()
		n++
		if n == 2 {
			break
		}
	}
	sawDegraded := false
	for i := 0; i < 97 && !sawDegraded; i++ {
		doc := []core.Event{core.Event(i), core.Event(i%31 + 100), core.Event(i%13 + 200)}
		res, err := rc.MatchResult(core.Canonical(doc))
		if err != nil {
			continue // a document whose every partition died: error is honest too
		}
		if res.Degraded {
			if len(res.Down) == 0 {
				t.Fatal("degraded result names no down blocks")
			}
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Fatal("R simultaneous failures never surfaced a degraded result")
	}
}

// TestJoinRebalanceMovesSubscriptions adds a block to a loaded cluster
// and checks the journaled handoff: the new map assigns it partitions,
// matches stay complete mid- and post-rebalance, and the new block
// actually serves (kill an old one and the cluster still answers fully).
func TestJoinRebalanceMovesSubscriptions(t *testing.T) {
	tc := startRing(t, 2, 2)
	rc := tc.ringClient(t)
	ref := seedSubs(t, rc, 200)
	v0 := tc.coord.Map().Version

	newBlock := tc.addBlock(t)
	m := tc.coord.Map()
	if m.Version <= v0 {
		t.Fatalf("join did not advance the map: v%d → v%d", v0, m.Version)
	}
	owns := 0
	for p := 0; p < NumPartitions; p++ {
		if m.Hosts(p, newBlock.Addr()) {
			owns++
		}
	}
	if owns == 0 {
		t.Fatal("joined block owns no partitions")
	}
	checkAgainstReference(t, rc, ref, false)

	// The copied partitions are real: kill one original block; the new
	// block must hold its share of the load (R=2 across 3 blocks).
	for addr, srv := range tc.blocks {
		if addr != newBlock.Addr() {
			srv.Close()
			break
		}
	}
	checkAgainstReference(t, rc, ref, false)
}

// TestLeaveDrainsGracefully retires a block via Leave and checks nothing
// is lost once the map excludes it.
func TestLeaveDrainsGracefully(t *testing.T) {
	tc := startRing(t, 3, 2)
	rc := tc.ringClient(t)
	ref := seedSubs(t, rc, 120)

	var leaving string
	for addr := range tc.blocks {
		leaving = addr
		break
	}
	if err := tc.coord.Leave(leaving); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	tc.blocks[leaving].Close() // safe to shut down now
	delete(tc.blocks, leaving)
	for p := 0; p < NumPartitions; p++ {
		if tc.coord.Map().Hosts(p, leaving) {
			t.Fatalf("left block still assigned partition %d", p)
		}
	}
	checkAgainstReference(t, rc, ref, false)
}

// TestTransferResumesFromWAL crashes the coordinator mid-handoff (a
// journaled transfer with moves pending) and checks a reopened
// coordinator resumes from the journal and commits — with every
// subscription intact.
func TestTransferResumesFromWAL(t *testing.T) {
	walDir := t.TempDir()
	c, err := NewCoord(walDir, 2, fastOpts()...)
	if err != nil {
		t.Fatalf("NewCoord: %v", err)
	}
	if err := c.ServeCoord("127.0.0.1:0"); err != nil {
		t.Fatalf("ServeCoord: %v", err)
	}
	var blocks []*Server
	for i := 0; i < 2; i++ {
		srv, err := ServeDynamic("127.0.0.1:0", nil)
		if err != nil {
			t.Fatalf("ServeDynamic: %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		blocks = append(blocks, srv)
		if err := c.Join(srv.Addr()); err != nil {
			t.Fatalf("Join: %v", err)
		}
	}
	rc, err := DialRing(c.Addr(), fastOpts()...)
	if err != nil {
		t.Fatalf("DialRing: %v", err)
	}
	t.Cleanup(func() { rc.Close() })
	ref := seedSubs(t, rc, 150)

	// A third block joins, but the transfer dies after a few moves: the
	// injected fault at the transfer point stands in for the coordinator
	// process crashing mid-handoff. The original coordinator is shut down
	// first — one journal, one writer.
	_ = c.Close()
	in := faults.New(42)
	in.Enable(faults.Rule{Point: faults.PointXfer, Mode: faults.ModeError, Prob: 1, Skip: 3})
	cFaulty, err := NewCoord(walDir, 2, append(fastOpts(), WithInjector(in))...)
	if err != nil {
		t.Fatalf("reopen coordinator: %v", err)
	}
	srv3, err := ServeDynamic("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("ServeDynamic: %v", err)
	}
	t.Cleanup(func() { srv3.Close() })
	err = cFaulty.Join(srv3.Addr())
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("faulted join = %v, want the injected mid-transfer crash", err)
	}
	_ = cFaulty.Close()

	// Reopen: NewCoord finds begin+moved records without a commit and
	// resumes the transfer to completion.
	c3, err := NewCoord(walDir, 2, fastOpts()...)
	if err != nil {
		t.Fatalf("NewCoord after crash: %v", err)
	}
	if err := c3.ServeCoord("127.0.0.1:0"); err != nil {
		t.Fatalf("ServeCoord: %v", err)
	}
	t.Cleanup(func() { c3.Close() })

	m := c3.Map()
	if len(m.Joining) != 0 {
		t.Fatalf("resumed map still mid-transfer: %+v", m)
	}
	owns := 0
	for p := 0; p < NumPartitions; p++ {
		if m.Hosts(p, srv3.Addr()) {
			owns++
		}
	}
	if owns == 0 {
		t.Fatal("resumed transfer never promoted the joining block")
	}

	rc2, err := DialRing(c3.Addr(), fastOpts()...)
	if err != nil {
		t.Fatalf("DialRing: %v", err)
	}
	t.Cleanup(func() { rc2.Close() })
	checkAgainstReference(t, rc2, ref, false)
}

// TestStaleClientRefreshesMap pins the stale-map path on the side where
// staleness is dangerous: a write routed by an old map could miss a
// joining destination, so blocks reject it and the client must refetch
// the map and re-issue the write to the full target set. (Reads never go
// stale on a join — rendezvous top-R only ever displaces a partition's
// second replica, so the first replica a stale reader contacts still
// hosts it.)
func TestStaleClientRefreshesMap(t *testing.T) {
	tc := startRing(t, 2, 2)
	rc := tc.ringClient(t)
	ref := seedSubs(t, rc, 80)

	tc.addBlock(t) // rc's map is now two versions behind

	events := []core.Event{7, 107, 207}
	if err := rc.Add(5000, events); err != nil {
		t.Fatalf("Add through a stale map: %v", err)
	}
	if err := ref.Add(5000, events); err != nil {
		t.Fatal(err)
	}
	if st := rc.Stats(); st.MapRefreshes == 0 {
		t.Fatalf("stale write never refreshed the map: %+v", st)
	}
	if got, want := rc.Map().Version, tc.coord.Map().Version; got != want {
		t.Fatalf("client map v%d, coordinator v%d", got, want)
	}
	checkAgainstReference(t, rc, ref, false)
}

// TestV1ClientRejectedLoudly pins the compatibility boundary: a request
// in the retired count-framed protocol ('M' | n u32 | events) gets an
// error frame naming a protocol error, never a silent empty result.
func TestV1ClientRejectedLoudly(t *testing.T) {
	srv, err := ServeDynamic("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("ServeDynamic: %v", err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{'M', 2, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, _, err = readBlob(bufio.NewReader(conn), nil)
	var remote *RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, ErrProtocol.Error()) {
		t.Fatalf("v1 match against a block = %v, want a remote protocol error", err)
	}
}
