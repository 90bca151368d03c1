package reporter

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"xymon/internal/stream"
	"xymon/internal/sublang"
	"xymon/internal/xmldom"
)

func periodicDue(st *Sub, now int64) bool {
	return st.period != 0 && now-st.lastReport >= int64(st.period)
}

func rateLimited(st *Sub, now int64) bool {
	return st.atMostFreq != 0 && st.hasReport && now-st.lastReport < int64(st.atMostFreq)
}

// scanTick is Tick as it was before the deadline heaps: every
// subscription of every stripe visited and its when clause evaluated, the
// whole archive swept. The differential test holds Tick to it. It leaves
// the heaps stale, and nothing reads them on its side.
func (r *Reporter) scanTick() {
	now := r.clock()
	at := now.UnixNano()
	var reps []*Report
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		for _, st := range s.subs {
			if len(st.buffer) == 0 && !st.pending {
				if periodicDue(st, at) {
					st.lastReport = at
				}
				continue
			}
			n := len(st.buffer)
			hold := n > st.countOver || n > 0 && periodicDue(st, at)
			for _, term := range st.tagTerms {
				hold = hold || term.n > term.over
			}
			switch {
			case st.pending && !rateLimited(st, at):
			case hold && rateLimited(st, at):
				st.pending = true
				continue
			case !hold:
				continue
			}
			reps = r.buildLocked(reps, s, st, now)
		}
		s.mu.Unlock()
	}
	r.archMu.Lock()
	keep := r.archive[:0]
	for _, a := range r.archive {
		if a.expiry > at {
			keep = append(keep, a)
		}
	}
	r.archive = keep
	r.archMu.Unlock()
	r.deliver(reps)
	r.drainRetries(now)
}

// deadlineOf is when Tick must next visit st, and whether it must at all:
// a pending report when the atmost frequency lets it go, else the end of
// the period.
func deadlineOf(st *Sub) (int64, bool) {
	switch {
	case st.pending && st.atMostFreq != 0 && st.hasReport:
		return st.lastReport + int64(st.atMostFreq), true
	case st.pending:
		return math.MinInt64, true
	case st.period != 0:
		return st.lastReport + int64(st.period), true
	}
	return 0, false
}

// checkHeaps asserts each stripe's deadline heap is a heap, every entry
// knows its index and sits at its live subscription's deadline, and every
// subscription with a deadline is on it.
func checkHeaps(t *testing.T, r *Reporter) {
	t.Helper()
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		for j, d := range s.due {
			at, ok := deadlineOf(d.sub)
			switch {
			case d.sub.due != j:
				t.Errorf("stripe %d: %s at heap index %d thinks it is at %d", i, d.sub.name, j, d.sub.due)
			case j > 0 && s.due[(j-1)/2].at > d.at:
				t.Errorf("stripe %d: heap order broken at index %d", i, j)
			case !d.sub.live || s.subs[d.sub.name] != d.sub:
				t.Errorf("stripe %d: dead subscription %s on the heap", i, d.sub.name)
			case !ok || at != d.at:
				t.Errorf("stripe %d: %s keyed %d, deadline %d (%v)", i, d.sub.name, d.at, at, ok)
			}
		}
		for name, st := range s.subs {
			if _, ok := deadlineOf(st); ok != (st.due >= 0) {
				t.Errorf("stripe %d: %s has a deadline %v but heap index %d", i, name, ok, st.due)
			}
		}
		s.mu.Unlock()
	}
}

// tickRig is one side of the differential test: a journaled Reporter on
// the shared clock, whose appends fail while fail is set, delivering into
// got by subscription.
type tickRig struct {
	dir string
	log *stream.Log
	r   *Reporter
	got map[string][]string
}

func openTickRig(t *testing.T, rg *tickRig, now *time.Time, fail *atomic.Bool) {
	t.Helper()
	l, err := stream.Open(rg.dir, stream.Options{Hook: func(op, _ string) error {
		if op == stream.OpAppend && fail.Load() {
			return errors.New("injected")
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	rg.log = l
	rg.r = New(DeliveryFunc(func(rep *Report) error {
		rg.got[rep.Subscription] = append(rg.got[rep.Subscription],
			fmt.Sprintf("%s %d %s", rep.Time.Format(time.RFC3339), rep.Notifications, rep.Doc.XML()))
		return nil
	}), WithClock(func() time.Time { return *now }), WithWAL(l))
}

// randomSpec draws a report specification from every kind of when term
// and both atmost clauses, with or without an archive.
func randomSpec(rng *rand.Rand) *sublang.ReportSpec {
	spec := &sublang.ReportSpec{}
	for k := 1 + rng.Intn(2); k > 0; k-- {
		switch rng.Intn(4) {
		case 0:
			spec.When = append(spec.When, sublang.ReportTerm{Kind: sublang.TermImmediate})
		case 1:
			spec.When = append(spec.When, sublang.ReportTerm{Kind: sublang.TermCount, Count: rng.Intn(5)})
		case 2:
			spec.When = append(spec.When, sublang.ReportTerm{Kind: sublang.TermTagCount, Tag: string(rune('a' + rng.Intn(3))), Count: rng.Intn(3)})
		case 3:
			freqs := []sublang.Frequency{sublang.Hourly, sublang.Daily, sublang.Frequency(10 * time.Minute)}
			spec.When = append(spec.When, sublang.ReportTerm{Kind: sublang.TermPeriodic, Freq: freqs[rng.Intn(len(freqs))]})
		}
	}
	if rng.Intn(3) == 0 {
		spec.AtMostCount = 1 + rng.Intn(4)
	}
	if rng.Intn(3) == 0 {
		spec.AtMostFreq = []sublang.Frequency{sublang.Frequency(30 * time.Minute), sublang.Hourly * 2}[rng.Intn(2)]
	}
	if rng.Intn(3) == 0 {
		spec.Archive = []sublang.Frequency{sublang.Hourly, sublang.Daily}[rng.Intn(2)]
	}
	return spec
}

// TestTickMatchesFullScan drives the heap Tick and the full-scan
// reference through the same random history — notifications, batches,
// clock steps, unsubscribe and re-subscribe, a failing fired write and
// restarts that recover buffers — and requires the same reports in the
// same order per subscription, the same buffers and the same archive.
func TestTickMatchesFullScan(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := range seeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { tickDifferential(t, int64(seed)) })
	}
}

func tickDifferential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	now := time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC)
	var fail atomic.Bool
	heapSide := &tickRig{dir: t.TempDir(), got: make(map[string][]string)}
	scanSide := &tickRig{dir: t.TempDir(), got: make(map[string][]string)}
	rigs := []*tickRig{heapSide, scanSide}
	for _, rg := range rigs {
		openTickRig(t, rg, &now, &fail)
	}
	defer func() {
		for _, rg := range rigs {
			rg.log.Close()
		}
	}()
	names := []string{"S0", "S1", "S2", "S3", "S4", "S5", "S6", "S7"}
	specs := make(map[string]*sublang.ReportSpec)
	register := func(name string) {
		specs[name] = randomSpec(rng)
		for _, rg := range rigs {
			rg.r.Register(name, specs[name])
		}
	}
	for _, name := range names {
		register(name)
	}
	tick := func() {
		heapSide.r.Tick()
		scanSide.r.scanTick()
	}
	seq := 0
	notification := func() Notification {
		seq++
		label := string(rune('a' + rng.Intn(3)))
		return Notification{
			Subscription: names[rng.Intn(len(names))], Label: label,
			Element: xmldom.Element(label).WithAttr("n", fmt.Sprint(seq)), Time: now,
		}
	}
	steps := []time.Duration{0, time.Second, 7 * time.Minute, 30 * time.Minute, time.Hour, 5 * time.Hour, 25 * time.Hour}
	for step := range 400 {
		var op string
		switch p := rng.Intn(100); {
		case p < 25:
			op = "clock"
			now = now.Add(steps[rng.Intn(len(steps))])
		case p < 55:
			op = "notify"
			n := notification()
			for _, rg := range rigs {
				rg.r.Notify(n)
			}
		case p < 65:
			op = "batch"
			ns := make([]Notification, 2+rng.Intn(4))
			for i := range ns {
				ns[i] = notification()
			}
			for _, rg := range rigs {
				rg.r.NotifyBatch(ns)
			}
		case p < 88:
			op = "tick"
			tick()
		case p < 93:
			op = "churn"
			name := names[rng.Intn(len(names))]
			if rng.Intn(2) == 0 {
				for _, rg := range rigs {
					if err := rg.r.Unregister(name); err != nil {
						t.Fatal(err)
					}
				}
			}
			register(name)
		case p < 97:
			op = "failed write"
			fail.Store(true)
			if rng.Intn(2) == 0 {
				n := notification()
				for _, rg := range rigs {
					rg.r.Notify(n)
				}
			} else {
				tick()
			}
			fail.Store(false)
		default:
			op = "restart"
			checkpoint := rng.Intn(2) == 0
			for _, rg := range rigs {
				if checkpoint {
					if err := rg.r.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				if err := rg.log.Close(); err != nil {
					t.Fatal(err)
				}
				openTickRig(t, rg, &now, &fail)
				for _, name := range names {
					rg.r.Register(name, specs[name])
				}
				if err := rg.r.Recover(nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkHeaps(t, heapSide.r)
		for _, name := range names {
			if a, b := heapSide.r.Buffered(name), scanSide.r.Buffered(name); a != b {
				t.Fatalf("step %d (%s): %s buffers %d, the full scan %d", step, op, name, a, b)
			}
			if a, b := len(heapSide.r.Archived(name)), len(scanSide.r.Archived(name)); op == "tick" && a != b {
				t.Fatalf("step %d (%s): %s archives %d reports, the full scan %d", step, op, name, a, b)
			}
		}
		if !reflect.DeepEqual(heapSide.got, scanSide.got) {
			for _, name := range names {
				if a, b := heapSide.got[name], scanSide.got[name]; !reflect.DeepEqual(a, b) {
					t.Fatalf("step %d (%s): %s got reports\n%q\nthe full scan\n%q", step, op, name, a, b)
				}
			}
		}
	}
	if len(heapSide.got) == 0 {
		t.Fatal("no report fired: the history exercised nothing")
	}
}

// TestTickVisitsOnlyDue: with 10⁵ subscriptions registered and one due,
// a Tick visits exactly one.
func TestTickVisitsOnlyDue(t *testing.T) {
	c := newClock()
	r, reports := collectReports(t, WithClock(c.now))
	daily := &sublang.ReportSpec{When: []sublang.ReportTerm{{Kind: sublang.TermPeriodic, Freq: sublang.Daily}}}
	for i := range 100_000 {
		r.Register(fmt.Sprintf("idle%d", i), daily)
	}
	r.Register("hot", &sublang.ReportSpec{When: []sublang.ReportTerm{{Kind: sublang.TermPeriodic, Freq: sublang.Hourly}}})
	for round := range 10 {
		r.Notify(notif("hot", "l"))
		c.advance(time.Hour)
		before := r.Stats().TickVisited
		r.Tick()
		if got := r.Stats().TickVisited - before; got != 1 {
			t.Fatalf("round %d: Tick visited %d subscriptions, want 1", round, got)
		}
		if len(*reports) != round+1 {
			t.Fatalf("round %d: %d reports, want %d", round, len(*reports), round+1)
		}
	}
}

// TestHotFieldsFit pins the memory layout the notification path relies
// on: a buffered notification is 24 bytes, the fields a notification
// reads share Sub's first 64 bytes, Sub does not grow, and its size is a
// multiple of 64, so the allocator's size class keeps each Sub on a cache
// line boundary.
func TestHotFieldsFit(t *testing.T) {
	if got := unsafe.Sizeof(buffered{}); got != 24 {
		t.Errorf("buffered is %d bytes, want 24", got)
	}
	var st Sub
	if end := unsafe.Offsetof(st.buffer) + unsafe.Sizeof(st.buffer); end > 64 {
		t.Errorf("Sub's per-notification fields end at byte %d, past its first cache line", end)
	}
	if got := unsafe.Sizeof(st); got > 216 || got%64 != 0 {
		t.Errorf("Sub is %d bytes, want a multiple of 64 no larger than 216", got)
	}
}

// TestTickBesideNotifyAndChurn runs Tick beside NotifyBatch, Register and
// Unregister on periodic, rate-limited and archived subscriptions; the
// race detector watches the heaps, and they must be whole at the end.
func TestTickBesideNotifyAndChurn(t *testing.T) {
	var clockNS atomic.Int64
	clockNS.Store(time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC).UnixNano())
	var delivered atomic.Int64
	r := New(DeliveryFunc(func(*Report) error { delivered.Add(1); return nil }),
		WithClock(func() time.Time { return time.Unix(0, clockNS.Load()) }))
	specs := []*sublang.ReportSpec{
		{When: []sublang.ReportTerm{{Kind: sublang.TermPeriodic, Freq: sublang.Frequency(10 * time.Minute)}}},
		{When: []sublang.ReportTerm{{Kind: sublang.TermImmediate}}, AtMostFreq: sublang.Frequency(30 * time.Minute)},
		{When: []sublang.ReportTerm{{Kind: sublang.TermTagCount, Tag: "a", Count: 1}}, Archive: sublang.Hourly},
		{When: []sublang.ReportTerm{{Kind: sublang.TermCount, Count: 2}, {Kind: sublang.TermPeriodic, Freq: sublang.Hourly}}},
	}
	const subs, rounds = 64, 2000
	for i := range subs {
		r.Register(fmt.Sprint("S", i), specs[i%len(specs)])
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for range rounds {
			clockNS.Add(int64(3 * time.Minute))
			r.Tick()
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for range rounds {
			ns := make([]Notification, 8)
			for i := range ns {
				label := string(rune('a' + rng.Intn(2)))
				ns[i] = Notification{Subscription: fmt.Sprint("S", rng.Intn(subs)), Label: label, Element: xmldom.Element(label)}
			}
			r.NotifyBatch(ns)
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for i := range rounds {
			name := fmt.Sprint("S", rng.Intn(subs))
			if i%2 == 0 {
				if err := r.Unregister(name); err != nil {
					t.Error(err)
				}
			}
			r.Register(name, specs[rng.Intn(len(specs))])
		}
	}()
	wg.Wait()
	checkHeaps(t, r)
	if delivered.Load() == 0 {
		t.Error("no report was delivered")
	}
}

// BenchmarkTickIdle times a Tick with n daily subscriptions registered
// and none due: the full scan it replaced cost about 135 ns per
// subscription.
func BenchmarkTickIdle(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			c := newClock()
			r := New(nil, WithClock(c.now))
			daily := &sublang.ReportSpec{When: []sublang.ReportTerm{{Kind: sublang.TermPeriodic, Freq: sublang.Daily}}}
			for i := range n {
				r.Register(fmt.Sprint("idle", i), daily)
			}
			for b.Loop() {
				r.Tick()
			}
		})
	}
}
