package cluster

import (
	"io"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"xymon/internal/core"
)

// startBlocks serves n empty blocks and returns their addresses.
func startBlocks(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		srv, err := ServeDynamic("127.0.0.1:0", nil)
		if err != nil {
			t.Fatalf("ServeDynamic: %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	return addrs
}

// startCluster shards a random subscription base over nBlocks servers
// through the R = 1 ring client and returns that client and the reference
// single matcher.
func startCluster(t *testing.T, nBlocks, nComplex, universe int, seed int64) (*RingClient, *core.Matcher) {
	t.Helper()
	client := NewRingClientWithMap(BuildMap(1, 1, startBlocks(t, nBlocks)))
	t.Cleanup(func() { client.Close() })
	rng := rand.New(rand.NewSource(seed))
	reference := core.NewMatcher()
	for id := core.ComplexID(0); int(id) < nComplex; id++ {
		events := make([]core.Event, 1+rng.Intn(4))
		for i := range events {
			events[i] = core.Event(rng.Intn(universe))
		}
		if err := reference.Add(id, events); err != nil {
			t.Fatalf("Add: %v", err)
		}
		if err := client.Add(id, events); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	return client, reference
}

func sorted(ids []core.ComplexID) []core.ComplexID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestDistributedMatchAgreesWithLocal(t *testing.T) {
	const universe = 100
	client, reference := startCluster(t, 3, 500, universe, 51)
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 50; trial++ {
		events := make([]core.Event, rng.Intn(15))
		for i := range events {
			events[i] = core.Event(rng.Intn(universe))
		}
		s := core.Canonical(events)
		got, err := client.Match(s)
		if err != nil {
			t.Fatalf("Match: %v", err)
		}
		want := reference.Match(s)
		got, want = sorted(got), sorted(want)
		if len(got) != len(want) {
			t.Fatalf("Match(%v) = %v, want %v", s, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Match(%v) = %v, want %v", s, got, want)
			}
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	const universe = 80
	client, reference := startCluster(t, 2, 300, universe, 53)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				events := make([]core.Event, 1+rng.Intn(10))
				for j := range events {
					events[j] = core.Event(rng.Intn(universe))
				}
				s := core.Canonical(events)
				got, err := client.Match(s)
				if err != nil {
					t.Errorf("Match: %v", err)
					return
				}
				if len(got) != len(reference.Match(s)) {
					t.Errorf("result size mismatch for %v", s)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestEmptyMatch(t *testing.T) {
	client, _ := startCluster(t, 2, 10, 50, 54)
	got, err := client.Match(nil)
	if err != nil {
		t.Fatalf("Match(nil): %v", err)
	}
	if len(got) != 0 {
		t.Errorf("Match(nil) = %v", got)
	}
}

func TestClientClosedErrors(t *testing.T) {
	client, _ := startCluster(t, 1, 10, 50, 55)
	client.Close()
	if _, err := client.Match(core.EventSet{1}); err == nil {
		t.Error("Match on closed client should fail")
	}
}

// TestDialFailure pins that a block nobody listens on is down, not empty:
// the probe counts it out and a match routed to it fails.
func TestDialFailure(t *testing.T) {
	client := NewRingClientWithMap(BuildMap(1, 1, []string{"127.0.0.1:1"}), WithRetries(0))
	defer client.Close()
	if up := client.Probe(); up != 0 {
		t.Errorf("Probe of a dead port = %d blocks up, want 0", up)
	}
	if _, err := client.Match(core.EventSet{1}); err == nil {
		t.Error("Match through a dead port should fail")
	}
}

func TestServerCloseUnblocksAccept(t *testing.T) {
	srv, err := ServeDynamic("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("ServeDynamic: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestProtocolErrorHandling(t *testing.T) {
	srv, err := ServeDynamic("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("ServeDynamic: %v", err)
	}
	defer srv.Close()

	// Garbage frame kind: the server answers with an error frame.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	conn.Write([]byte{'X', 0, 0, 0, 0})
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(conn, buf); err != nil || buf[0] != 'E' {
		t.Errorf("expected error frame, got %q err %v", buf, err)
	}

	// Oversized length: rejected, error frame again.
	conn2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn2.Close()
	frame := []byte{'M', 0xFF, 0xFF, 0xFF, 0x7F}
	conn2.Write(frame)
	conn2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(conn2, buf); err != nil || buf[0] != 'E' {
		t.Errorf("oversized frame: got %q err %v", buf, err)
	}
}

func TestClientAgainstMisbehavingServer(t *testing.T) {
	// A fake "server" that answers every request with an error frame.
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
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
					msg := []byte("synthetic failure")
					c.Write([]byte{'E', byte(len(msg)), 0, 0, 0})
					c.Write(msg)
				}
			}(conn)
		}
	}()
	client := NewRingClientWithMap(BuildMap(1, 1, []string{ln.Addr().String()}))
	defer client.Close()
	_, err = client.Match(core.EventSet{1})
	if err == nil || !strings.Contains(err.Error(), "synthetic failure") {
		t.Errorf("Match error = %v, want remote failure surfaced", err)
	}
}
