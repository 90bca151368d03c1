package cluster

import (
	"errors"
	"net"
	"testing"
	"time"

	"xymon/internal/core"
)

// twoBlockCluster is two blocks sharded by the R = 1 map over their
// addresses: block A holds complex 0 ← {evA}, block B holds complex
// 1 ← {evB}.
type twoBlockCluster struct {
	srvA, srvB *Server
	m          Map
	evA, evB   core.Event
}

// eventOn returns the smallest event whose partition m assigns to addr.
func eventOn(m Map, addr string) core.Event {
	e := core.Event(1)
	for !m.Hosts(PartitionOfEvent(e), addr) {
		e++
	}
	return e
}

// twoBlocks builds a two-block cluster with known partitions. It returns
// both servers so tests can kill and resurrect them individually.
func twoBlocks(t *testing.T) twoBlockCluster {
	t.Helper()
	var c twoBlockCluster
	for _, srv := range []**Server{&c.srvA, &c.srvB} {
		s, err := ServeDynamic("127.0.0.1:0", nil)
		if err != nil {
			t.Fatalf("ServeDynamic: %v", err)
		}
		t.Cleanup(func() { s.Close() })
		*srv = s
	}
	c.m = BuildMap(1, 1, []string{c.srvA.Addr(), c.srvB.Addr()})
	c.evA, c.evB = eventOn(c.m, c.srvA.Addr()), eventOn(c.m, c.srvB.Addr())
	loader := NewRingClientWithMap(c.m)
	defer loader.Close()
	if err := loader.Add(0, []core.Event{c.evA}); err != nil {
		t.Fatal(err)
	}
	if err := loader.Add(1, []core.Event{c.evB}); err != nil {
		t.Fatal(err)
	}
	return c
}

// set is a document touching both blocks.
func (c twoBlockCluster) set() core.EventSet {
	return core.Canonical([]core.Event{c.evA, c.evB})
}

// restartBlock brings a block back up on the address it previously held.
func restartBlock(t *testing.T, addr string, id core.ComplexID, events []core.Event) *Server {
	t.Helper()
	m := core.NewMatcher()
	if err := m.Add(id, events); err != nil {
		t.Fatal(err)
	}
	srv, err := ServeDynamic(addr, m)
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestDegradedPartialResults kills one of two blocks and checks the
// client keeps answering with the surviving block's matches, flagged
// Degraded, instead of failing the whole document.
func TestDegradedPartialResults(t *testing.T) {
	c := twoBlocks(t)
	srvB := c.srvB
	client := NewRingClientWithMap(c.m,
		WithTimeouts(time.Second, time.Second),
		WithRetries(1),
		WithDownCooldown(10*time.Millisecond, 50*time.Millisecond),
	)
	defer client.Close()

	set := c.set()
	res, err := client.MatchResult(set)
	if err != nil || res.Degraded || len(res.IDs) != 2 {
		t.Fatalf("healthy MatchResult = %+v, %v", res, err)
	}

	addrB := srvB.Addr()
	srvB.Close()
	res, err = client.MatchResult(set)
	if err != nil {
		t.Fatalf("degraded MatchResult errored: %v", err)
	}
	if !res.Degraded {
		t.Fatal("one block down: result not flagged Degraded")
	}
	if len(res.Down) != 1 || res.Down[0] != addrB {
		t.Errorf("Down = %v, want [%s]", res.Down, addrB)
	}
	if len(res.IDs) != 1 || res.IDs[0] != 0 {
		t.Errorf("partial IDs = %v, want the surviving block's [0]", res.IDs)
	}
	if st := client.Stats(); st.Degraded == 0 || st.BlockFailures == 0 {
		t.Errorf("stats = %+v, want degraded and block-failure counts", st)
	}

	// Resurrect block B; Probe reconnects it immediately (no cooldown
	// wait) and full results come back.
	restartBlock(t, addrB, 1, []core.Event{c.evB})
	deadline := time.Now().Add(5 * time.Second)
	for client.Probe() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("Probe never brought block B back")
		}
		time.Sleep(10 * time.Millisecond)
	}
	res, err = client.MatchResult(set)
	if err != nil || res.Degraded || len(res.IDs) != 2 {
		t.Fatalf("post-recovery MatchResult = %+v, %v", res, err)
	}
	if st := client.Stats(); st.Reconnects == 0 {
		t.Errorf("stats = %+v, want a reconnect recorded", st)
	}
}

// TestAllBlocksDownErrors pins the no-degradation boundary: when every
// block is unreachable there is nothing to degrade to, so Match errors
// (it must not silently return zero matches).
func TestAllBlocksDownErrors(t *testing.T) {
	c := twoBlocks(t)
	client := NewRingClientWithMap(c.m,
		WithRetries(0),
		WithDownCooldown(time.Minute, time.Minute),
	)
	defer client.Close()
	c.srvA.Close()
	c.srvB.Close()
	if _, err := client.Match(c.set()); err == nil {
		t.Fatal("Match with every block down returned nil error")
	}
}

// TestUncoordinatedDeadBlockKeepsConnections: on blocks no coordinator
// installed a map on, a write to a dead block's partition asks a live
// block for its map, and the live block's "no map" answer must leave the
// connection up: failing writes cost no reconnects.
func TestUncoordinatedDeadBlockKeepsConnections(t *testing.T) {
	var srvs []*Server
	var addrs []string
	for range 4 {
		s, err := ServeDynamic("127.0.0.1:0", nil)
		if err != nil {
			t.Fatalf("ServeDynamic: %v", err)
		}
		t.Cleanup(func() { s.Close() })
		srvs = append(srvs, s)
		addrs = append(addrs, s.Addr())
	}
	m := BuildMap(1, 1, addrs)
	client := NewRingClientWithMap(m, WithRetries(0))
	defer client.Close()
	for i, addr := range addrs {
		if err := client.Add(core.ComplexID(i), []core.Event{eventOn(m, addr)}); err != nil {
			t.Fatalf("add on %s: %v", addr, err)
		}
	}
	srvs[0].Close()
	dead := eventOn(m, addrs[0])
	const writes = 20
	for i := range writes {
		if err := client.Add(core.ComplexID(100+i), []core.Event{dead}); err == nil {
			t.Fatal("a write to the dead block's partition succeeded")
		}
	}
	if st := client.Stats(); st.Reconnects != 0 {
		t.Errorf("%d failed writes cost %d reconnects, want 0", writes, st.Reconnects)
	}
}

// TestDownCooldownSkipsAndRecovers checks the cooldown bookkeeping on a
// virtual clock: a failed block is skipped instantly while cooling down,
// and the first match after the window re-dials it.
func TestDownCooldownSkipsAndRecovers(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { return now }
	c := twoBlocks(t)
	client := NewRingClientWithMap(c.m,
		WithRetries(0),
		WithDownCooldown(time.Minute, time.Hour),
		WithClientClock(clock),
	)
	defer client.Close()

	addrB := c.srvB.Addr()
	c.srvB.Close()
	set := c.set()
	if res, err := client.MatchResult(set); err != nil || !res.Degraded {
		t.Fatalf("first MatchResult = %+v, %v", res, err)
	}
	var down *BlockHealth
	for _, h := range client.Health() {
		if h.Addr == addrB {
			h := h
			down = &h
		}
	}
	if down == nil || down.Up || down.Fails == 0 || !down.DownUntil.After(now) {
		t.Fatalf("block B health = %+v, want down with a cooldown window", down)
	}

	// Inside the cooldown the block is skipped without dialing: even with
	// the server back up, the result stays degraded.
	restartBlock(t, addrB, 1, []core.Event{c.evB})
	if res, err := client.MatchResult(set); err != nil || !res.Degraded {
		t.Fatalf("in-cooldown MatchResult = %+v, %v", res, err)
	}

	// Past the window the next match doubles as the health probe.
	now = now.Add(2 * time.Minute)
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := client.MatchResult(set)
		if err == nil && !res.Degraded && len(res.IDs) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("block B never probed back in: %+v, %v", res, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, h := range client.Health() {
		if h.Addr == addrB && (!h.Up || h.Fails != 0) {
			t.Errorf("recovered block health = %+v", h)
		}
	}
}

// TestMatchNeverHangsOnSilentPeer points the client at a peer that
// accepts connections and then says nothing: the I/O deadline must turn
// the hang into a bounded failure.
func TestMatchNeverHangsOnSilentPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open, never respond
		}
	}()
	client := NewRingClientWithMap(BuildMap(1, 1, []string{ln.Addr().String()}),
		WithTimeouts(time.Second, 200*time.Millisecond),
		WithRetries(0),
	)
	defer client.Close()
	start := time.Now()
	if _, err := client.Match(core.EventSet{1}); err == nil {
		t.Fatal("Match against a silent peer returned nil error")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("Match took %v, want deadline-bounded (~200ms)", elapsed)
	}
}

// TestRemoteErrorNotRetried pins that an error frame from a live block is
// surfaced directly: the transport worked, so retrying or marking the
// block down would be wrong.
func TestRemoteErrorNotRetried(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 256)
				if _, err := c.Read(buf); err != nil {
					return
				}
				msg := []byte("bad request")
				c.Write([]byte{'E', byte(len(msg)), 0, 0, 0})
				c.Write(msg)
			}(conn)
		}
	}()
	client := NewRingClientWithMap(BuildMap(1, 1, []string{ln.Addr().String()}), WithRetries(3))
	defer client.Close()
	_, err = client.Match(core.EventSet{1})
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Msg != "bad request" {
		t.Fatalf("Match = %v, want RemoteError(bad request)", err)
	}
	if st := client.Stats(); st.Retries != 0 {
		t.Errorf("remote error consumed %d retries, want 0", st.Retries)
	}
}

// TestServerSurvivesAbruptDisconnect tears a client away mid-frame and
// checks the server keeps serving fresh connections.
func TestServerSurvivesAbruptDisconnect(t *testing.T) {
	m := core.NewMatcher()
	if err := m.Add(7, []core.Event{3}); err != nil {
		t.Fatal(err)
	}
	srv, err := ServeDynamic("127.0.0.1:0", m)
	if err != nil {
		t.Fatalf("ServeDynamic: %v", err)
	}
	defer srv.Close()

	// Announce a 16-byte match frame, send two bytes of it, vanish.
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	raw.Write([]byte{kindMatch, 16, 0, 0, 0, 0xAA, 0xBB})
	raw.Close()

	// And another that disconnects before even finishing the header.
	raw2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	raw2.Write([]byte{kindMatch, 1})
	raw2.Close()

	client := NewRingClientWithMap(BuildMap(1, 1, []string{srv.Addr()}))
	defer client.Close()
	ids, err := client.Match(core.EventSet{3})
	if err != nil || len(ids) != 1 || ids[0] != 7 {
		t.Fatalf("Match after abrupt disconnects = %v, %v", ids, err)
	}
}

// TestClosedBlockConnNeverDials pins the end of a shared connection's
// life: once closed, a request that reaches it fails instead of dialing
// a connection nobody would close.
func TestClosedBlockConnNeverDials(t *testing.T) {
	srv, err := ServeDynamic("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("ServeDynamic: %v", err)
	}
	defer srv.Close()
	dials := 0
	cfg := newClientConfig([]ClientOption{WithDialer(func(addr string) (net.Conn, error) {
		dials++
		return net.DialTimeout("tcp", addr, time.Second)
	})})
	bc := &blockConn{addr: srv.Addr()}
	if kind, _, err := bc.request(&cfg, new(netStats), kindDump, encodeU32(0)); err != nil || kind != kindDumped {
		t.Fatalf("dump = %q, %v", kind, err)
	}
	if err := bc.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, _, err := bc.request(&cfg, new(netStats), kindDump, encodeU32(0)); err == nil {
		t.Fatal("a request on a closed connection succeeded")
	}
	if dials != 1 {
		t.Fatalf("dialed %d times, want 1", dials)
	}
}
