package main

import (
	"fmt"
	"sync"
	"time"
)

// tape is the generated input of one workload: a pure function of
// (workload, seed, scale), built before anything is timed. The system under
// test only ever receives bytes from it.
type tape interface {
	// sum is the SHA-256 of everything the system will be handed, so two
	// commits can be shown to have received identical inputs.
	sum() string
	// pageBytes is the mean size of one document.
	pageBytes() float64
	// open builds a fresh system under test over the tape — xymon.New, the
	// subscription base, the first commit of tracked pages — which is what
	// setup_s times. dir is an empty directory for durable state.
	open(dir string) (instance, error)
}

// instance is one loaded system under test plus the workload's cursor over
// the tape.
type instance interface {
	clients() int
	// warmup is the number of documents each client runs before anything
	// is measured. It is a count, not a time, so the state the measured
	// window starts from (and rss_peak_mb) does not depend on speed.
	warmup() int
	// step hands client c's next document to the system between cl.start
	// and cl.stop and reports whether the oracle held. With cl.tr set it
	// also records spans and shadow calls.
	step(c int, cl *client) bool
	// aux starts the workload's side goroutines (stream consumer,
	// subscription writer). They stop when stop closes; wait returns once
	// they have ended. Nil when the workload has none.
	aux(stop <-chan struct{}) (wait func())
	// atBoundary reports whether client c stands between two rounds of the
	// tape; a timed phase ends there, so the measured mix is the tape's.
	atBoundary(c int) bool
	// side adds what the side goroutines measured over the phase just run.
	side(out *report)
	// layers adds the per-layer figures of the phases run so far.
	layers(traced []*client, out *report)
	// finish runs the end-of-run oracle and adds what can only be measured
	// then (recover_s).
	finish(out *report)
	// close releases the system; it is safe after finish and on an instance
	// that never ran.
	close()
}

// report collects the metrics and oracle verdicts of one run.
type report struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	notes     []string
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// fail records one failed operation: a document that errored, a
// correctness check that did not hold, a degraded result.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 10 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

var clockBase = time.Now()

// now is nanoseconds on the monotonic clock since process start.
func now() int64 { return int64(time.Since(clockBase)) }

// client is the private state of one closed-loop caller.
type client struct {
	id      int
	t0, end int64 // hand-in and return of the document in flight

	samples []uint32 // latencies of documents that met the oracle
	stamps  []int64  // their completion times, for slicing
	notify  []uint32 // hand-in → Delivery of an immediate report
	docs    int64
	failed  int64

	tr *tracer // set in the traced phase only
}

func (cl *client) start() { cl.t0 = now() }
func (cl *client) stop()  { cl.end = now() }

// noteDelivery is called from the harness's Delivery for an immediate
// report raised by the document in flight.
func (cl *client) noteDelivery() {
	cl.notify = append(cl.notify, clampNs(now()-cl.t0))
}

// phase is one run of every client over the tape: the warm-up (bounded by
// a document count) or a window (bounded by a duration).
type phase struct {
	clients    []*client
	start, end int64
}

// runPhase runs the instance's clients, closed loop, until each has done
// maxDocs documents (when > 0) or dur has passed, with the side goroutines
// alive for exactly that long.
func runPhase(inst instance, dur time.Duration, maxDocs int, traced bool) *phase {
	n := inst.clients()
	ph := &phase{clients: make([]*client, n)}
	for i := range ph.clients {
		cl := &client{id: i}
		if traced {
			cl.tr = newTracer(i, traceCap/n)
		}
		ph.clients[i] = cl
	}
	stop := make(chan struct{})
	wait := inst.aux(stop)
	ph.start = now()
	deadline := ph.start + int64(dur)
	var wg sync.WaitGroup
	for i := range ph.clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for {
				if maxDocs > 0 && cl.docs >= int64(maxDocs) {
					return
				}
				if maxDocs <= 0 && now() >= deadline && inst.atBoundary(cl.id) {
					return
				}
				ok := inst.step(cl.id, cl)
				cl.docs++
				if ok {
					cl.samples = append(cl.samples, clampNs(cl.end-cl.t0))
					cl.stamps = append(cl.stamps, cl.end)
				} else {
					cl.failed++
				}
			}
		}(ph.clients[i])
	}
	wg.Wait()
	ph.end = now()
	close(stop)
	if wait != nil {
		wait()
	}
	return ph
}

func (ph *phase) docs() (attempted, failed int64) {
	for _, cl := range ph.clients {
		attempted += cl.docs
		failed += cl.failed
	}
	return
}

// windowStats are the end-to-end figures of one measured window. The
// window is cut into equal time slices; the rate and the percentiles are
// computed per slice and the median slice is reported, so one scheduling
// hiccup or collector cycle moves one slice, not the figure.
type windowStats struct {
	docsPerS, p50us, p90us, p99us float64
	samples                       int
	rates                         []float64 // per slice, for the log
}

func (ph *phase) stats() windowStats {
	span := ph.end - ph.start
	if span <= 0 {
		return windowStats{}
	}
	per := make([][]uint32, slices)
	total := 0
	for _, cl := range ph.clients {
		for i, at := range cl.stamps {
			s := int((at - ph.start) * slices / span)
			if s >= slices {
				s = slices - 1
			}
			per[s] = append(per[s], cl.samples[i])
			total++
		}
	}
	var rates, p50s, p90s, p99s []float64
	sliceS := float64(span) / slices / 1e9
	for _, s := range per {
		if len(s) == 0 {
			rates = append(rates, 0)
			continue
		}
		sortNs(s)
		rates = append(rates, float64(len(s))/sliceS)
		p50s = append(p50s, quantile(s, 0.50)/1e3)
		p90s = append(p90s, quantile(s, 0.90)/1e3)
		p99s = append(p99s, quantile(s, 0.99)/1e3)
	}
	return windowStats{docsPerS: median(rates), p50us: median(p50s), p90us: median(p90s), p99us: median(p99s), samples: total, rates: rates}
}

// notifyQuantiles returns the median and 99th percentile, in µs, of the
// hand-in → Delivery delays of the phase.
func (ph *phase) notifyQuantiles() (p50, p99 float64) {
	var all []uint32
	for _, cl := range ph.clients {
		all = append(all, cl.notify...)
	}
	sortNs(all)
	return quantile(all, 0.50) / 1e3, quantile(all, 0.99) / 1e3
}

// openLoop calls op at a fixed rate until stop closes. Operation k is due
// at start + k/rate whatever happened to the ones before it; lat receives
// each operation's time from its due time to its return and late how long
// after its due time it began — the wait a stall imposes on later
// operations is in the first, the generator's own tardiness in the second.
func openLoop(rate float64, stop <-chan struct{}, clock func() int64, sleep func(time.Duration), op func(k int)) (lat, late []int64) {
	start := clock()
	period := float64(time.Second) / rate
	for k := 0; ; k++ {
		due := start + int64(float64(k)*period)
		for {
			select {
			case <-stop:
				return lat, late
			default:
			}
			wait := due - clock()
			if wait <= 0 {
				break
			}
			sleep(time.Duration(wait))
		}
		begin := clock()
		op(k)
		lat = append(lat, clock()-due)
		late = append(late, begin-due)
	}
}
