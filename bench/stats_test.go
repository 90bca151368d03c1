package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.99, 49.6}} {
		if got := quantile(s, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64(nil), 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
	ns := []uint32{100, 200, 300, 400}
	if got := quantile(ns, 0.5); !near(got, 250) {
		t.Errorf("quantile of ns = %v, want 250", got)
	}
	if got := percentile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("percentile sorts a copy: got %v", got)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 3.5, 5.75},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{"lat", "us", "lower", 0.10}
	higher := metricSpec{"rate", "1/s", "higher", 0.10}
	steady := func(x float64) []float64 { return []float64{x * 0.99, x, x * 1.01, x, x} }
	for _, c := range []struct {
		m    metricSpec
		a, b []float64
		want string
	}{
		{lower, steady(100), steady(104), "within-bound"},
		{lower, steady(100), steady(120), "worse"},
		{lower, steady(100), steady(80), "better"},
		{higher, steady(100), steady(80), "worse"},
		{higher, steady(100), steady(120), "better"},
		{lower, []float64{60, 100, 140, 100, 100}, steady(100), "unresolved"},
	} {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.m.name, c.a, c.b, got, c.want)
		}
	}
}

// The open-loop scheduler runs on an injected clock here: sleeping advances
// it, and so does the operation. Operation 2 stalls for 35 ms at a 10 ms
// period, so operations 3 to 5 start late and their latency, counted from
// when they were due, includes the stall.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	var clock int64
	ms := int64(time.Millisecond)
	stop := make(chan struct{})
	lat, late := openLoop(100, stop,
		func() int64 { return clock },
		func(d time.Duration) { clock += int64(d) },
		func(k int) {
			clock += ms
			if k == 2 {
				clock += 34 * ms
			}
			if k == 7 {
				close(stop)
			}
		})
	if len(lat) != 8 || len(late) != 8 {
		t.Fatalf("ran %d operations, want 8", len(lat))
	}
	// due at k·10 ms; op 2 runs 20→55, op 3 55→56, op 4 56→57, op 5 57→58, op 6 on time
	wantLate := []int64{0, 0, 0, 25, 16, 7, 0, 0}
	wantLat := []int64{1, 1, 35, 26, 17, 8, 1, 1}
	for k := range lat {
		if late[k] != wantLate[k]*ms || lat[k] != wantLat[k]*ms {
			t.Errorf("op %d: late %v lat %v, want %d ms and %d ms", k, time.Duration(late[k]), time.Duration(lat[k]), wantLate[k], wantLat[k])
		}
	}
}

func TestWindowStatsTakeTheMedianSlice(t *testing.T) {
	// one client, slices of 1 s; slice 3 is ten times slower
	cl := &client{}
	for s := 0; s < slices; s++ {
		n, lat := 1000, uint32(1000)
		if s == 3 {
			n, lat = 100, 10000
		}
		for i := 0; i < n; i++ {
			cl.samples = append(cl.samples, lat)
			cl.stamps = append(cl.stamps, int64(s)*int64(time.Second)+int64(i))
		}
	}
	ph := &phase{clients: []*client{cl}, start: 0, end: slices * int64(time.Second)}
	st := ph.stats()
	if !near(st.docsPerS, 1000) || !near(st.p50us, 1) || !near(st.p99us, 1) || st.samples != (slices-1)*1000+100 {
		t.Errorf("stats = %+v, want the 1000 docs/s, 1 µs slices to win", st)
	}
}
