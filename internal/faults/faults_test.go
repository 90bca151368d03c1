package faults

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"xymon/internal/reporter"
	"xymon/internal/wal"
)

func TestCheckErrorMode(t *testing.T) {
	in := New(1)
	if err := in.Check(PointFetch, "http://a/"); err != nil {
		t.Fatalf("unarmed injector faulted: %v", err)
	}
	in.Enable(Rule{Point: PointFetch, Mode: ModeError})
	err := in.Check(PointFetch, "http://a/")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Check = %v, want ErrInjected", err)
	}
	// Other points stay clean.
	if err := in.Check(PointCommit, "http://a/"); err != nil {
		t.Fatalf("commit point faulted: %v", err)
	}
	in.Clear()
	if err := in.Check(PointFetch, "http://a/"); err != nil {
		t.Fatalf("cleared injector faulted: %v", err)
	}
	st := in.Stats()[PointFetch]
	if st.Errors != 1 || st.Total() != 1 {
		t.Errorf("stats = %+v, want 1 error", st)
	}
}

func TestNilInjectorIsTransparent(t *testing.T) {
	var in *Injector
	if f := in.Fire(PointFetch, "x"); f != nil {
		t.Errorf("nil injector fired %+v", f)
	}
	if err := in.Check(PointFetch, "x"); err != nil {
		t.Errorf("nil injector Check = %v", err)
	}
	if len(in.Stats()) != 0 {
		t.Error("nil injector has stats")
	}
}

func TestRuleCountAndMatch(t *testing.T) {
	in := New(2)
	in.Enable(Rule{Point: PointFetch, Mode: ModeError, Count: 2, Match: "siteA"})
	fails := 0
	for i := 0; i < 5; i++ {
		if in.Check(PointFetch, "http://siteA/p.xml") != nil {
			fails++
		}
	}
	if fails != 2 {
		t.Errorf("count-capped rule fired %d times, want 2", fails)
	}
	if err := in.Check(PointFetch, "http://siteB/p.xml"); err != nil {
		t.Errorf("unmatched key faulted: %v", err)
	}
}

func TestProbabilityIsDeterministic(t *testing.T) {
	fire := func() []bool {
		in := New(42)
		in.Enable(Rule{Point: PointFetch, Mode: ModeError, Prob: 0.5})
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, in.Check(PointFetch, "k") != nil)
		}
		return out
	}
	a, b := fire(), fire()
	some, all := false, true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
		some = some || a[i]
		all = all && a[i]
	}
	if !some || all {
		t.Errorf("prob 0.5 fired on %v — expected a mix", a)
	}
}

func TestLatencyUsesInjectedSleep(t *testing.T) {
	in := New(3)
	var slept time.Duration
	in.Sleep = func(d time.Duration) { slept += d }
	in.Enable(Rule{Point: PointDelivery, Mode: ModeLatency, Latency: 250 * time.Millisecond})
	if err := in.Check(PointDelivery, "S"); err != nil {
		t.Fatalf("latency fault errored: %v", err)
	}
	if slept != 250*time.Millisecond {
		t.Errorf("slept %v, want 250ms", slept)
	}
}

// pipeConn builds a connected TCP pair so deadline semantics are real.
func pipeConn(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(done)
			return
		}
		done <- c
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, ok := <-done
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestConnErrorModePoisons(t *testing.T) {
	raw, _ := pipeConn(t)
	in := New(4)
	in.Enable(Rule{Point: PointConn, Mode: ModeError, Count: 1})
	conn := WrapConn(raw, in, PointConn)
	if _, err := conn.Write([]byte("hello")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Write = %v, want ErrInjected", err)
	}
	// The rule is exhausted, but the conn stays broken — like a real
	// TCP stream after a RST.
	if _, err := conn.Write([]byte("again")); !errors.Is(err, ErrInjected) {
		t.Errorf("poisoned conn Write = %v, want sticky ErrInjected", err)
	}
}

func TestConnDropWriteSwallows(t *testing.T) {
	raw, peer := pipeConn(t)
	in := New(5)
	in.Enable(Rule{Point: PointConn, Mode: ModeDrop, Count: 1})
	conn := WrapConn(raw, in, PointConn)
	if n, err := conn.Write([]byte("vanish")); err != nil || n != 6 {
		t.Fatalf("dropped Write = (%d, %v), want silent success", n, err)
	}
	// The peer must see nothing: a bounded read times out.
	peer.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 16)
	if n, err := peer.Read(buf); err == nil {
		t.Errorf("peer read %d bytes of a dropped write", n)
	}
	// Next write goes through.
	if _, err := conn.Write([]byte("ok")); err != nil {
		t.Fatalf("post-drop Write: %v", err)
	}
	peer.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, _ := peer.Read(buf); n != 2 {
		t.Errorf("peer read %d bytes, want 2", n)
	}
}

func TestConnDropReadBlocksUntilDeadline(t *testing.T) {
	raw, peer := pipeConn(t)
	in := New(6)
	in.Enable(Rule{Point: PointConn, Mode: ModeDrop, Count: 1})
	conn := WrapConn(raw, in, PointConn)
	if _, err := peer.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	start := time.Now()
	buf := make([]byte, 16)
	_, err := conn.Read(buf)
	if err == nil {
		t.Fatal("dropped read returned data")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("dropped read error = %v, want timeout", err)
	}
	if time.Since(start) < 50*time.Millisecond {
		t.Errorf("dropped read returned after %v, want to block until the deadline", time.Since(start))
	}
}

func TestConnTruncateWrite(t *testing.T) {
	raw, peer := pipeConn(t)
	in := New(7)
	in.Enable(Rule{Point: PointConn, Mode: ModeTruncate, Count: 1})
	conn := WrapConn(raw, in, PointConn)
	n, err := conn.Write([]byte("12345678"))
	if !errors.Is(err, ErrInjected) || n != 4 {
		t.Fatalf("truncated Write = (%d, %v), want (4, ErrInjected)", n, err)
	}
	peer.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, _ := io.ReadAll(peer)
	if string(got) != "1234" {
		t.Errorf("peer saw %q, want the torn half %q", got, "1234")
	}
}

type countSink struct{ n int }

func (s *countSink) Deliver(*reporter.Report) error { s.n++; return nil }

func TestFaultyDelivery(t *testing.T) {
	in := New(8)
	sink := &countSink{}
	d := WrapDelivery(sink, in)
	rep := &reporter.Report{Subscription: "S"}

	if err := d.Deliver(rep); err != nil || sink.n != 1 {
		t.Fatalf("clean delivery = %v (n=%d)", err, sink.n)
	}
	in.Enable(Rule{Point: PointDelivery, Mode: ModeError, Count: 1})
	if err := d.Deliver(rep); !errors.Is(err, ErrInjected) {
		t.Fatalf("error-mode delivery = %v", err)
	}
	in.Enable(Rule{Point: PointDelivery, Mode: ModeDrop, Count: 1})
	if err := d.Deliver(rep); err != nil {
		t.Fatalf("drop-mode delivery = %v, want silent loss", err)
	}
	if sink.n != 1 || d.Lost() != 1 {
		t.Errorf("sink=%d lost=%d, want 1/1", sink.n, d.Lost())
	}
	// Cleared injector: delivery flows again.
	if err := d.Deliver(rep); err != nil || sink.n != 2 {
		t.Errorf("post-fault delivery = %v (n=%d)", err, sink.n)
	}
}

func TestCrashModeCallsExit(t *testing.T) {
	in := New(1)
	var code int
	calls := 0
	in.Exit = func(c int) { code = c; calls++ }
	in.Enable(Rule{Point: Point(wal.OpAppend), Mode: ModeCrash, Count: 1})

	if err := in.Check(Point(wal.OpAppend), "subs"); !errors.Is(err, ErrInjected) {
		t.Fatalf("stubbed crash = %v, want ErrInjected", err)
	}
	if calls != 1 || code != 2 {
		t.Fatalf("Exit called %d times with code %d, want once with 2", calls, code)
	}
	if st := in.Stats()[Point(wal.OpAppend)]; st.Crashes != 1 {
		t.Errorf("Crashes = %d, want 1", st.Crashes)
	}
	if err := in.Check(Point(wal.OpAppend), "subs"); err != nil {
		t.Errorf("after Count exhausted: %v", err)
	}
}

func TestRuleSkipDefersFiring(t *testing.T) {
	in := New(1)
	in.Exit = func(int) {}
	in.Enable(Rule{Point: Point(wal.OpAppend), Mode: ModeCrash, Skip: 3, Count: 1})
	for i := 0; i < 3; i++ {
		if err := in.Check(Point(wal.OpAppend), "k"); err != nil {
			t.Fatalf("skipped occurrence %d faulted: %v", i, err)
		}
	}
	if err := in.Check(Point(wal.OpAppend), "k"); !errors.Is(err, ErrInjected) {
		t.Fatalf("occurrence 4 = %v, want the crash", err)
	}
	// Skip only counts matching keys.
	in.Clear()
	in.Enable(Rule{Point: Point(wal.OpAppend), Mode: ModeError, Skip: 1, Match: "yes"})
	if err := in.Check(Point(wal.OpAppend), "no"); err != nil {
		t.Fatalf("non-matching key consumed a skip: %v", err)
	}
	if err := in.Check(Point(wal.OpAppend), "yes"); err != nil {
		t.Fatalf("first match should be skipped: %v", err)
	}
	if err := in.Check(Point(wal.OpAppend), "yes"); !errors.Is(err, ErrInjected) {
		t.Fatalf("second match = %v, want fault", err)
	}
}

func TestDeliveryAckFault(t *testing.T) {
	in := New(3)
	sink := &countSink{}
	d := WrapDelivery(sink, in)
	rep := &reporter.Report{Subscription: "S"}
	in.Enable(Rule{Point: PointDeliveryAck, Mode: ModeError, Count: 1})

	// The sink accepted the report; the caller still sees a failure —
	// exactly the lost-ack shape that forces an at-least-once duplicate.
	if err := d.Deliver(rep); !errors.Is(err, ErrInjected) {
		t.Fatalf("ack fault = %v, want ErrInjected", err)
	}
	if sink.n != 1 {
		t.Fatalf("sink deliveries = %d, want 1 (fault fires after acceptance)", sink.n)
	}
	if err := d.Deliver(rep); err != nil || sink.n != 2 {
		t.Errorf("retry = %v (n=%d), want clean duplicate", err, sink.n)
	}
}

// Lost counts reports swallowed by drop-mode faults.
func (d *FaultyDelivery) Lost() uint64 { return d.lost.Load() }
