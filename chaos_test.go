package xymon

import (
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xymon/internal/cluster"
	"xymon/internal/core"
	"xymon/internal/faults"
	"xymon/internal/reporter"
	"xymon/internal/stream"
	"xymon/internal/xmldom"
)

// TestChaosPipeline runs the full acquisition→delivery chain under a
// seeded fault storm — failing fetches, failing warehouse commits,
// failing report deliveries — then heals the faults and requires the
// system to converge: every page committed, every fired report either
// delivered or parked on the dead-letter queue with its reason, nothing
// stuck in a retry queue, nothing silently lost.
func TestChaosPipeline(t *testing.T) {
	c := &testClock{t: time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC)}
	in := faults.New(99)
	sink := &countingSink{}
	sys, err := New(Options{Clock: c.now, Delivery: faults.WrapDelivery(sink, in)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := sys.Subscribe(`subscription Chaos
monitoring
select <Changed url=URL/>
where URL extends "http://chaos.example/" and modified self
report when immediate`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	site := NewSite(SiteSpec{
		BaseURL: "http://chaos.example", Pages: 6, Products: 8, Churn: 3,
		Seed: 777, Domain: "shopping",
	})
	sys.AddSite(site)
	sys.Crawler.Faults = in

	in.Enable(faults.Rule{Point: faults.PointFetch, Mode: faults.ModeError, Prob: 0.4})
	in.Enable(faults.Rule{Point: faults.PointCommit, Mode: faults.ModeError, Prob: 0.3})
	in.Enable(faults.Rule{Point: faults.PointDelivery, Mode: faults.ModeError, Prob: 0.5})

	// Ten simulated days of chaos.
	for i := 0; i < 40; i++ {
		sys.Crawl()
		sys.Tick()
		c.advance(6 * time.Hour)
	}
	st := sys.Stats()
	if st.Crawler.FetchErrors == 0 || st.Crawler.CommitErrors == 0 || st.Crawler.Retries == 0 {
		t.Fatalf("fault storm did not bite: crawler stats = %+v", st.Crawler)
	}
	if sys.Reporter.Stats().Failed == 0 {
		t.Fatal("fault storm did not bite: no delivery ever failed")
	}

	// Heal and drain: three more simulated weeks cover the 7-day refresh
	// period, every crawl backoff, and every delivery retry backoff.
	in.Clear()
	for i := 0; i < 84; i++ {
		sys.Crawl()
		sys.Tick()
		c.advance(6 * time.Hour)
	}

	wantPages := len(site.XMLURLs()) + len(site.HTMLURLs())
	if sys.Store.Len() != wantPages {
		t.Errorf("warehouse has %d pages after healing, want %d", sys.Store.Len(), wantPages)
	}
	for _, url := range site.XMLURLs() {
		if f := sys.Crawler.Fails(url); f != 0 {
			t.Errorf("%s still failing after heal: %d consecutive fails", url, f)
		}
	}

	// Delivery conservation: everything the reporter fired is accounted
	// for — accepted by the sink or dead-lettered with its reason.
	rst := sys.Reporter.Stats()
	delivered, retried, deadLettered := rst.Delivered, rst.Retried, rst.DeadLettered
	if retried == 0 {
		t.Error("no delivery was ever retried under a 50% failure rate")
	}
	if pending := rst.RetryPending; pending != 0 {
		t.Errorf("%d reports stuck in the retry queue after healing", pending)
	}
	total := sink.n.Load()
	if delivered != total {
		t.Errorf("reporter counted %d delivered, sink accepted %d", delivered, total)
	}
	dead := sys.Reporter.DeadLetters()
	if uint64(len(dead)) != deadLettered || rst.DeadLetters != len(dead) {
		t.Errorf("DeadLetters has %d entries, counter says %d, queue length %d", len(dead), deadLettered, rst.DeadLetters)
	}
	for _, dl := range dead {
		if dl.Reason == "" || !strings.Contains(dl.Reason, "injected") {
			t.Errorf("dead letter without a usable reason: %+v", dl)
		}
		if dl.Attempts == 0 {
			t.Errorf("dead letter with zero attempts: %+v", dl)
		}
	}
	if total == 0 {
		t.Fatal("nothing was ever delivered")
	}
}

// countingSink accepts every delivery and counts it.
type countingSink struct{ n atomic.Uint64 }

func (s *countingSink) Deliver(*reporter.Report) error { s.n.Add(1); return nil }

// downSink refuses every delivery — the pathological push target the
// change-stream exists to route around.
type downSink struct{ calls int }

func (s *downSink) Deliver(*reporter.Report) error {
	s.calls++
	return errors.New("sink down")
}

// TestChaosStreamSlowConsumer is the backpressure gate for the durable
// change-stream: the push sink is dead and a pull consumer runs an
// order of magnitude slower than the producer, yet the reporter's
// in-memory queues stay at their configured caps the whole time — the
// stream on disk absorbs the lag. Truncation surfaces only when the
// consumer genuinely falls past the retention floor, the documented
// re-sync path recovers it, and once the storm ends it catches up by
// replay to zero lag with every published record either consumed in
// order or skipped across an honestly-reported truncation gap. The
// stream is the reporter's journal: its notif and dead records sit
// between the fired batches the consumer reads.
func TestChaosStreamSlowConsumer(t *testing.T) {
	c := &testClock{t: time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC)}
	dir := t.TempDir()
	st, err := stream.Open(dir, stream.Options{SegmentBytes: 1024, MaxBehind: 120})
	if err != nil {
		t.Fatalf("stream.Open: %v", err)
	}
	defer st.Close()

	sink := &downSink{}
	const deadCap = 8
	rep := reporter.New(sink,
		reporter.WithClock(c.now),
		reporter.WithRetryPolicy(1, time.Minute, time.Minute),
		reporter.WithDeadLetterCap(deadCap),
		reporter.WithWAL(st),
	)
	rep.Register("Storm", nil)
	doc, err := xmldom.ParseString("<page>storm</page>")
	if err != nil {
		t.Fatal(err)
	}

	rd, err := stream.OpenReader(dir, "slow", stream.ReaderOptions{MaxFetch: 4})
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	defer rd.Close()
	truncations := 0
	var nextExpect uint64
	// consume runs one bounded poll, requiring offsets contiguous with
	// everything consumed so far; a truncation is tolerated only when the
	// position is genuinely behind the retention floor, and re-syncs.
	consume := func(max int) {
		recs, err := rd.Poll(max)
		if err != nil {
			var trunc *stream.TruncatedError
			if !errors.As(err, &trunc) {
				t.Fatalf("Poll: %v", err)
			}
			if first := st.Stats().FirstRetained; trunc.Requested >= first {
				t.Fatalf("spurious truncation: requested %d with first retained %d", trunc.Requested, first)
			}
			first, err := rd.SeekOldest()
			if err != nil {
				t.Fatalf("SeekOldest: %v", err)
			}
			if first < nextExpect {
				t.Fatalf("re-sync moved backwards: %d after consuming to %d", first, nextExpect)
			}
			nextExpect = first
			truncations++
			return
		}
		for _, rec := range recs {
			if rec.Offset != nextExpect {
				t.Fatalf("consumer jumped from offset %d to %d without a truncation", nextExpect, rec.Offset)
			}
			nextExpect++
		}
		if len(recs) > 0 {
			if err := rd.Commit(); err != nil {
				t.Fatalf("Commit: %v", err)
			}
		}
	}

	// The storm: 400 reports fired at a dead sink, the consumer pulling
	// 4 records for every 10 produced, a reporter checkpoint — which
	// applies retention — every 5 rounds. The reporter's bounds hold at
	// every step, not just at the end.
	const rounds, perRound = 40, 10
	for round := 0; round < rounds; round++ {
		for i := 0; i < perRound; i++ {
			rep.Notify(reporter.Notification{Subscription: "Storm", Label: "l", Element: doc.Root})
		}
		consume(4)
		if round%5 == 4 {
			if err := rep.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
		if p := rep.Stats().RetryPending; p != 0 {
			t.Fatalf("round %d: retry queue grew to %d with retrying exhausted", round, p)
		}
		if d := len(rep.DeadLetters()); d > deadCap {
			t.Fatalf("round %d: dead letters %d exceed cap %d", round, d, deadCap)
		}
		c.advance(time.Minute)
	}

	produced := uint64(rounds * perRound)
	if got := st.Stats().Next; got != produced {
		t.Fatalf("stream head %d, want every one of %d fired reports published", got, produced)
	}
	if got := st.Stats().Records; got != produced {
		t.Fatalf("Stats().Records = %d; want every one of %d fired reports", got, produced)
	}
	if n := rep.Stats().JournalErrors; n != 0 {
		t.Fatalf("JournalErrors = %d", n)
	}
	if truncations == 0 {
		t.Fatal("a 10x-slower consumer never fell past the retention floor; the scenario did not bite")
	}
	if st.Stats().TruncatedRecords == 0 {
		t.Error("retention reclaimed nothing past the floor")
	}

	// Storm over: the consumer catches up by replay — larger polls, same
	// contiguity contract — to zero lag.
	for rd.Next() < st.Stats().Next {
		before := rd.Next()
		consume(64)
		if rd.Next() == before {
			t.Fatalf("catch-up stalled at offset %d with head %d", before, st.Stats().Next)
		}
	}
	if err := rep.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if lag, ok := st.Stats().Lags["slow"]; !ok || lag != 0 {
		t.Errorf("consumer lag after catch-up = %d (known: %v), want 0", lag, ok)
	}
	if sink.calls == 0 {
		t.Error("the dead sink was never even attempted")
	}
}

// TestChaosClusterDegradation wires a two-block R = 1 ring client through
// the fault injector's dialer, poisons one block, and requires every
// match to return promptly with the surviving block's results flagged
// Degraded — then heals the fault and requires a probe to restore full,
// reference-equal results.
func TestChaosClusterDegradation(t *testing.T) {
	srvA, err := cluster.ServeDynamic("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("ServeDynamic: %v", err)
	}
	defer srvA.Close()
	srvB, err := cluster.ServeDynamic("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("ServeDynamic: %v", err)
	}
	defer srvB.Close()
	m := cluster.BuildMap(1, 1, []string{srvA.Addr(), srvB.Addr()})

	in := faults.New(7)
	client := cluster.NewRingClientWithMap(m,
		cluster.WithDialer(faults.Dialer(in, faults.PointConn, time.Second)),
		cluster.WithTimeouts(time.Second, 500*time.Millisecond),
		cluster.WithRetries(1),
		cluster.WithDownCooldown(50*time.Millisecond, 200*time.Millisecond),
	)
	defer client.Close()

	// Complex 0 lives on block A and complex 1 on block B: each event is
	// the smallest one the map routes to its block.
	reference := core.NewMatcher()
	var events []core.Event
	for id, addr := range []string{srvA.Addr(), srvB.Addr()} {
		e := core.Event(1)
		for !m.Hosts(cluster.PartitionOfEvent(e), addr) {
			e++
		}
		events = append(events, e)
		for _, add := range []func(core.ComplexID, []core.Event) error{reference.Add, client.Add} {
			if err := add(core.ComplexID(id), []core.Event{e}); err != nil {
				t.Fatal(err)
			}
		}
	}
	set := core.Canonical(events)
	want := reference.Match(set)
	res, err := client.MatchResult(set)
	if err != nil || res.Degraded || len(res.IDs) != len(want) {
		t.Fatalf("healthy MatchResult = %+v, %v (want %d ids)", res, err, len(want))
	}

	// Poison block B: its live conn breaks on next use, and re-dials to
	// it fail at the injector before touching the network.
	in.Enable(faults.Rule{Point: faults.PointConn, Mode: faults.ModeError, Match: srvB.Addr()})
	for i := 0; i < 5; i++ {
		start := time.Now()
		res, err = client.MatchResult(set)
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("match %d took %v with a block down — degradation must be prompt", i, elapsed)
		}
		if err != nil {
			t.Fatalf("match %d with block B down errored: %v", i, err)
		}
		if !res.Degraded || len(res.Down) != 1 || res.Down[0] != srvB.Addr() {
			t.Fatalf("match %d = %+v, want Degraded with B down", i, res)
		}
		if len(res.IDs) != 1 || res.IDs[0] != 0 {
			t.Fatalf("match %d partial IDs = %v, want block A's [0]", i, res.IDs)
		}
	}
	if st := client.Stats(); st.Degraded == 0 || st.BlockFailures == 0 {
		t.Errorf("client stats = %+v, want degradations and block failures", st)
	}

	// Heal and probe the block back in: results return to reference.
	in.ClearPoint(faults.PointConn)
	deadline := time.Now().Add(5 * time.Second)
	for client.Probe() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("Probe never restored block B")
		}
		time.Sleep(20 * time.Millisecond)
	}
	res, err = client.MatchResult(set)
	if err != nil || res.Degraded {
		t.Fatalf("post-heal MatchResult = %+v, %v", res, err)
	}
	got := map[core.ComplexID]bool{}
	for _, id := range res.IDs {
		got[id] = true
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("post-heal results missing %d: %v vs reference %v", id, res.IDs, want)
		}
	}
}

// TestChaosClusterRebalance is the capstone for the replicated,
// rebalancing cluster: a coordinator with R=2 and three dynamic blocks
// take a storm of subscription writes through a faulty network while
// blocks are killed, evicted and joined, the coordinator crashes
// mid-handoff and resumes from its WAL, and finally R blocks die at
// once. The invariants: no subscription acked to the caller is ever
// lost; one block failure yields complete results with Degraded=false;
// R failures yield honestly-flagged bounded degradation (a correct
// subset, the dead blocks named) — never silently wrong results.
func TestChaosClusterRebalance(t *testing.T) {
	in := faults.New(2001) // client-side network chaos
	walDir := t.TempDir()
	coordOpts := []cluster.ClientOption{
		cluster.WithTimeouts(time.Second, time.Second),
		cluster.WithRetries(2),
	}
	coord, err := cluster.NewCoord(walDir, 2, coordOpts...)
	if err != nil {
		t.Fatalf("NewCoord: %v", err)
	}
	if err := coord.ServeCoord("127.0.0.1:0"); err != nil {
		t.Fatalf("ServeCoord: %v", err)
	}

	newBlock := func() *cluster.Server {
		srv, err := cluster.ServeDynamic("127.0.0.1:0", nil)
		if err != nil {
			t.Fatalf("ServeDynamic: %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	var blocks []*cluster.Server
	for i := 0; i < 3; i++ {
		srv := newBlock()
		if err := coord.Join(srv.Addr()); err != nil {
			t.Fatalf("Join: %v", err)
		}
		blocks = append(blocks, srv)
	}

	clientOpts := []cluster.ClientOption{
		cluster.WithDialer(faults.Dialer(in, faults.PointConn, time.Second)),
		cluster.WithTimeouts(time.Second, 300*time.Millisecond),
		cluster.WithRetries(2),
		cluster.WithDownCooldown(10*time.Millisecond, 50*time.Millisecond),
	}
	rc := cluster.NewRingClientWithMap(blocks[0].Map(), clientOpts...)
	defer rc.Close()

	reference := core.NewMatcher()
	subEvents := map[core.ComplexID][]core.Event{}
	rng := rand.New(rand.NewSource(2001))
	nextID := core.ComplexID(0)

	storm := func() {
		in.Enable(faults.Rule{Point: faults.PointConn, Mode: faults.ModeError, Prob: 0.04})
		in.Enable(faults.Rule{Point: faults.PointConn, Mode: faults.ModeTruncate, Prob: 0.02})
	}
	calm := func() { in.Clear() }

	// addSubs writes n subscriptions through the ring client under the
	// current fault regime. An Add only counts once it returns nil (every
	// replica acked); transient failures are retried — the zero-loss
	// invariant covers exactly the acked set.
	addSubs := func(c *cluster.RingClient, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			id := nextID
			nextID++
			events := []core.Event{
				core.Event(rng.Intn(200)),
				core.Event(rng.Intn(200)),
				core.Event(rng.Intn(200)),
			}
			var err error
			for attempt := 0; attempt < 50; attempt++ {
				if err = c.Add(id, events); err == nil {
					break
				}
				// Wait out the down-cooldown a transient fault may have
				// started before burning another attempt.
				time.Sleep(10 * time.Millisecond)
			}
			if err != nil {
				t.Fatalf("Add(%d) never succeeded: %v", id, err)
			}
			if err := reference.Add(id, events); err != nil {
				t.Fatal(err)
			}
			subEvents[id] = events
		}
	}

	// verifyAll matches every acked subscription's own definition set and
	// requires its id in the (reference-equal) result — the direct
	// statement of "zero lost subscriptions". Runs on a calm network so
	// the degradation flag is meaningful; wantDegraded pins it.
	verifyAll := func(c *cluster.RingClient, wantDegraded bool) {
		t.Helper()
		calm()
		for id, events := range subEvents {
			set := core.Canonical(events)
			want := reference.Match(set)
			res, err := c.MatchResult(set)
			if err != nil {
				t.Fatalf("MatchResult(sub %d): %v", id, err)
			}
			if res.Degraded != wantDegraded {
				t.Fatalf("sub %d: Degraded = %v, want %v (down: %v)", id, res.Degraded, wantDegraded, res.Down)
			}
			if len(res.IDs) != len(want) {
				t.Fatalf("sub %d: got %d ids, reference says %d", id, len(res.IDs), len(want))
			}
			found := false
			for _, got := range res.IDs {
				if got == id {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("subscription %d lost: absent from its own definition's match", id)
			}
		}
	}

	// Phase 1: write storm on a healthy cluster.
	storm()
	addSubs(rc, 120)
	verifyAll(rc, false)

	// Phase 2: kill one block mid-storm. R=2 means every partition still
	// has a live replica: reads return complete results, Degraded=false,
	// throughout. Writes are consistency-first — they need every replica's
	// ack, so adds touching the dead block's partitions fail loudly (never
	// a silent partial write) until the eviction below re-replicates.
	storm()
	addSubs(rc, 40)
	killed := blocks[1]
	killed.Close()
	verifyAll(rc, false)
	if st := rc.Stats(); st.Failovers == 0 {
		t.Fatalf("a dead block never forced a failover: %+v", st)
	}

	// Phase 3: evict the corpse (Leave); the survivors re-replicate its
	// partitions from the remaining copies and writes resume everywhere.
	if err := coord.Leave(killed.Addr()); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	storm()
	addSubs(rc, 40)
	verifyAll(rc, false)

	// Phase 4: a fresh block joins under storm and takes its share.
	storm()
	joined := newBlock()
	if err := coord.Join(joined.Addr()); err != nil {
		t.Fatalf("Join mid-storm: %v", err)
	}
	addSubs(rc, 40)
	verifyAll(rc, false)

	// Phase 5: the coordinator crashes mid-handoff — an injected fault at
	// the transfer point kills a join partway, with the begin and some
	// moved records journaled but no commit — then a reopened coordinator
	// resumes the transfer from the WAL and completes it.
	calm()
	if err := coord.Close(); err != nil {
		t.Fatalf("coordinator shutdown: %v", err)
	}
	inXfer := faults.New(7)
	inXfer.Enable(faults.Rule{Point: faults.PointXfer, Mode: faults.ModeError, Prob: 1, Skip: 2})
	coordFaulty, err := cluster.NewCoord(walDir, 2, append(coordOpts, cluster.WithInjector(inXfer))...)
	if err != nil {
		t.Fatalf("reopen coordinator: %v", err)
	}
	late := newBlock()
	if err := coordFaulty.Join(late.Addr()); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("faulted join = %v, want the injected mid-transfer crash", err)
	}
	if err := coordFaulty.Close(); err != nil {
		t.Fatalf("crashed coordinator close: %v", err)
	}
	coord2, err := cluster.NewCoord(walDir, 2, coordOpts...)
	if err != nil {
		t.Fatalf("NewCoord after crash: %v", err)
	}
	if err := coord2.ServeCoord("127.0.0.1:0"); err != nil {
		t.Fatalf("ServeCoord: %v", err)
	}
	defer coord2.Close()
	if m := late.Map(); len(m.Joining) != 0 {
		t.Fatalf("resumed coordinator still mid-transfer: %+v", m)
	}
	rc2 := cluster.NewRingClientWithMap(late.Map(), clientOpts...)
	defer rc2.Close()
	storm()
	addSubs(rc2, 40)
	verifyAll(rc2, false)

	// Phase 6: kill R blocks at once. Partitions whose whole replica set
	// died are gone until a rebalance; the client must flag exactly that
	// — degraded results stay a correct subset with the dead named, and
	// documents with every partition alive stay complete.
	calm()
	live := []*cluster.Server{blocks[0], blocks[2], joined, late}
	live[0].Close()
	live[1].Close()
	sawDegraded := false
	for i := 0; i < 200 && !sawDegraded; i++ {
		set := core.Canonical([]core.Event{
			core.Event(rng.Intn(200)), core.Event(rng.Intn(200)), core.Event(rng.Intn(200)),
		})
		want := map[core.ComplexID]bool{}
		for _, id := range reference.Match(set) {
			want[id] = true
		}
		res, err := rc2.MatchResult(set)
		if err != nil {
			continue // every partition of this doc died: an error is honest
		}
		for _, id := range res.IDs {
			if !want[id] {
				t.Fatalf("degraded-mode result invented id %d for %v", id, set)
			}
		}
		if res.Degraded {
			if len(res.Down) == 0 {
				t.Fatal("degraded result names no down blocks")
			}
			sawDegraded = true
		} else if len(res.IDs) != len(want) {
			t.Fatalf("undegraded result incomplete: %d of %d ids for %v", len(res.IDs), len(want), set)
		}
	}
	if !sawDegraded {
		t.Fatal("killing R blocks never surfaced a degraded result")
	}
}
