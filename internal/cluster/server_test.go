package cluster

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"xymon/internal/core"
	"xymon/internal/faults"
)

// TestIdleConnectionReaped is the regression test for the
// connect-and-stall hang: a client that opens a connection and never
// sends a request used to pin a server goroutine (and its conn) forever.
// The per-request read deadline must reap it.
func TestIdleConnectionReaped(t *testing.T) {
	m := core.NewMatcher()
	if err := m.Add(1, []core.Event{4}); err != nil {
		t.Fatal(err)
	}
	srv, err := ServeDynamic("127.0.0.1:0", m, WithReadIdle(100*time.Millisecond))
	if err != nil {
		t.Fatalf("ServeDynamic: %v", err)
	}
	defer srv.Close()

	stall, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer stall.Close()
	// Send nothing. The server must close its end within ~the idle
	// window; our read unblocks with EOF instead of hanging.
	stall.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	start := time.Now()
	if _, err := stall.Read(buf); err == nil {
		t.Fatal("stalled connection read data, want the server to hang up")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never reaped the idle connection")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("idle reap took %v, want ~100ms", elapsed)
	}

	// The server is still serving fresh clients.
	client := NewRingClientWithMap(BuildMap(1, 1, []string{srv.Addr()}))
	defer client.Close()
	if ids, err := client.Match(core.EventSet{4}); err != nil || len(ids) != 1 {
		t.Fatalf("Match after stall = %v, %v", ids, err)
	}
}

// TestReadIdleAllowsActiveClient pins that the deadline is per request,
// not per connection: a client pausing less than the idle window between
// requests keeps its connection.
func TestReadIdleAllowsActiveClient(t *testing.T) {
	m := core.NewMatcher()
	if err := m.Add(1, []core.Event{4}); err != nil {
		t.Fatal(err)
	}
	srv, err := ServeDynamic("127.0.0.1:0", m, WithReadIdle(300*time.Millisecond))
	if err != nil {
		t.Fatalf("ServeDynamic: %v", err)
	}
	defer srv.Close()
	client := NewRingClientWithMap(BuildMap(1, 1, []string{srv.Addr()}))
	defer client.Close()
	for i := 0; i < 4; i++ {
		if ids, err := client.Match(core.EventSet{4}); err != nil || len(ids) != 1 {
			t.Fatalf("request %d = %v, %v", i, ids, err)
		}
		time.Sleep(100 * time.Millisecond) // well under the idle window
	}
	if st := client.Stats(); st.Reconnects != 0 {
		t.Errorf("active client was disconnected %d times", st.Reconnects)
	}
}

// TestAcceptLoopBackoffStopsOnClose breaks the listener out from under
// the accept loop — every Accept now fails instantly, the condition that
// used to hot-spin — and checks Close still terminates the server
// promptly (the backoff sleep must watch the closing channel).
func TestAcceptLoopBackoffStopsOnClose(t *testing.T) {
	srv, err := ServeDynamic("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("ServeDynamic: %v", err)
	}
	srv.ln.Close() // out-of-band: acceptLoop sees persistent errors
	time.Sleep(50 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung while the accept loop was backing off")
	}
}

// TestServerInjectorSeams drives a match through server-side injected
// faults at the accept and read points and checks the client's retry
// machinery rides them out — and that the injector actually fired, which
// is what makes the seams visible to fault-coverage analysis.
func TestServerInjectorSeams(t *testing.T) {
	in := faults.New(11)
	in.Enable(faults.Rule{Point: faults.PointAccept, Mode: faults.ModeError, Count: 1})
	in.Enable(faults.Rule{Point: faults.PointServeRead, Mode: faults.ModeError, Count: 1})
	in.Enable(faults.Rule{Point: faults.PointServeWrite, Mode: faults.ModeError, Count: 1})
	srv, err := ServeDynamic("127.0.0.1:0", nil, WithServerInjector(in))
	if err != nil {
		t.Fatalf("ServeDynamic: %v", err)
	}
	defer srv.Close()

	m := BuildMap(1, 1, []string{srv.Addr()})
	rc := NewRingClientWithMap(m, WithTimeouts(time.Second, time.Second), WithRetries(3),
		WithDownCooldown(time.Millisecond, 5*time.Millisecond))
	defer rc.Close()

	if err := rc.Add(9, []core.Event{3}); err != nil {
		t.Fatalf("Add through server faults: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := rc.MatchResult(core.Canonical([]core.Event{3}))
		if err == nil && len(res.IDs) == 1 && res.IDs[0] == 9 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("match never recovered from injected server faults: %+v, %v", res, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	stats := in.Stats()
	fired := 0
	for _, p := range []faults.Point{faults.PointAccept, faults.PointServeRead, faults.PointServeWrite} {
		fired += int(stats[p].Total())
	}
	if fired < 3 {
		t.Errorf("server fault points fired %d times, want all three seams exercised: %+v", fired, stats)
	}
}

// TestOversizedFrameRejected sends a v2 frame whose declared length
// exceeds the blob cap: the server must answer with a protocol error (or
// hang up), never attempt the multi-gigabyte allocation.
func TestOversizedFrameRejected(t *testing.T) {
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
	hdr := make([]byte, 5)
	hdr[0] = kindMatch
	binary.LittleEndian.PutUint32(hdr[1:], maxBlob+1)
	if _, err := conn.Write(hdr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	kind := make([]byte, 1)
	if _, err := io.ReadFull(conn, kind); err != nil {
		return // hang-up is acceptable
	}
	if kind[0] != kindError {
		t.Fatalf("oversized frame answered with %q, want an error frame", kind[0])
	}
}

// TestTruncatedFrameReaped sends a v2 header promising more payload than
// ever arrives: the read deadline must reap the connection instead of
// waiting forever, and the server must keep serving others.
func TestTruncatedFrameReaped(t *testing.T) {
	srv, err := ServeDynamic("127.0.0.1:0", nil, WithReadIdle(100*time.Millisecond))
	if err != nil {
		t.Fatalf("ServeDynamic: %v", err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	hdr := make([]byte, 5)
	hdr[0] = kindAdd
	binary.LittleEndian.PutUint32(hdr[1:], 64)
	conn.Write(append(hdr, 1, 2, 3)) // 3 of 64 promised bytes, then silence
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err == nil {
		// An error frame is fine too; what matters is the conn resolves.
		return
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server held a truncated frame open past the idle window")
	}

	// Server health check after the abuse.
	m := BuildMap(1, 1, []string{srv.Addr()})
	rc := NewRingClientWithMap(m, WithTimeouts(time.Second, time.Second))
	defer rc.Close()
	if err := rc.Add(4, []core.Event{8}); err != nil {
		t.Fatalf("Add after truncated-frame abuse: %v", err)
	}
	ids, err := rc.Match(core.Canonical([]core.Event{8}))
	if err != nil || len(ids) != 1 {
		t.Fatalf("Match after abuse = %v, %v", ids, err)
	}
}

// TestRingProbeHealthTransitions walks the ring client's health life
// cycle: up → down with a cooldown window after a kill → resurrected by
// an explicit Probe that ignores the cooldown.
func TestRingProbeHealthTransitions(t *testing.T) {
	dyn := core.NewMatcher()
	if err := dyn.Add(2, []core.Event{6}); err != nil {
		t.Fatal(err)
	}
	srv, err := ServeDynamic("127.0.0.1:0", dyn)
	if err != nil {
		t.Fatalf("ServeDynamic: %v", err)
	}
	addr := srv.Addr()
	t.Cleanup(func() { srv.Close() })

	m := BuildMap(1, 1, []string{addr})
	rc := NewRingClientWithMap(m, WithTimeouts(time.Second, 200*time.Millisecond),
		WithRetries(0), WithDownCooldown(time.Minute, time.Hour))
	defer rc.Close()
	if got := rc.Probe(); got != 1 {
		t.Fatalf("Probe = %d blocks up, want 1", got)
	}

	srv.Close()
	if _, err := rc.Match(core.Canonical([]core.Event{6})); err == nil {
		t.Fatal("match with the only replica dead returned nil error")
	}
	var h *BlockHealth
	for _, bh := range rc.Health() {
		if bh.Addr == addr {
			bh := bh
			h = &bh
		}
	}
	if h == nil || h.Up || h.Fails == 0 || h.DownUntil.IsZero() {
		t.Fatalf("health after kill = %+v, want down with a cooldown window", h)
	}

	// Resurrect; the cooldown (a minute) would skip the block, but Probe
	// reconnects immediately.
	srv2, err := ServeDynamic(addr, dyn2(t))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(func() { srv2.Close() })
	deadline := time.Now().Add(5 * time.Second)
	for rc.Probe() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("Probe never brought the block back")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ids, err := rc.Match(core.Canonical([]core.Event{6}))
	if err != nil || len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("post-probe Match = %v, %v", ids, err)
	}
}

func dyn2(t *testing.T) *core.Matcher {
	t.Helper()
	m := core.NewMatcher()
	if err := m.Add(2, []core.Event{6}); err != nil {
		t.Fatal(err)
	}
	return m
}
