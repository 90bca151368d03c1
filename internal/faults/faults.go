// Package faults is a seeded, deterministic fault-injection layer for the
// acquisition→delivery pipeline. The paper's system ran against the real
// web and a real sendmail daemon, where fetches fail, cluster peers hang
// and delivery saturates; the synthetic web never fails, so every
// robustness path would otherwise go unexercised. An Injector holds rules
// keyed by named fault points — the seams of the pipeline — and each layer
// (crawler fetch/commit, cluster connections, report delivery) consults it
// through a small wrapper or an inline check. With no rules armed every
// check is a single mutex acquire and the pipeline behaves exactly as
// before; chaos tests arm rules, run the pipeline, clear the rules and
// assert recovery.
//
// Determinism: all probabilistic decisions draw from one seeded
// *rand.Rand under the injector's mutex, so a chaos run with a fixed seed
// and a fixed call order injects the same faults every time.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"
)

// Point names a fault-injection seam of the pipeline.
type Point string

// The pipeline's named fault points.
const (
	// PointFetch fires in the crawler before a page fetch.
	PointFetch Point = "fetch"
	// PointCommit fires in the crawler before a warehouse commit.
	PointCommit Point = "warehouse.commit"
	// PointConn fires on every Read/Write of a wrapped net.Conn.
	PointConn Point = "cluster.conn"
	// PointAccept fires in the cluster server when a connection is
	// admitted, keyed by the remote address — an error fault here drops
	// the connection before the handler starts.
	PointAccept Point = "cluster.accept"
	// PointServeRead / PointServeWrite fire in the cluster server's
	// handler before each request read and each response write, keyed by
	// the remote address — the server half of the PointConn seam, so a
	// chaos test can poison either side of the exchange.
	PointServeRead  Point = "cluster.serve.read"
	PointServeWrite Point = "cluster.serve.write"
	// PointXfer fires in the cluster coordinator around subscription
	// state transfer, keyed by "partition→destination" — the seam for
	// truncated or crashed handoffs.
	PointXfer Point = "cluster.xfer"
	// PointDelivery fires in the Delivery wrapper before a report is
	// handed to the real sink.
	PointDelivery Point = "delivery"
	// PointDeliveryAck fires in the Delivery wrapper after the sink
	// accepted the report but before the Reporter learns it: a fault here
	// makes the Reporter retry an already-delivered report — the
	// legitimate duplicate the at-least-once contract allows.
	PointDeliveryAck Point = "delivery.ack"

	// PointSave fires in the warehouse before a snapshot's manifest
	// installs (after the fsynced temp file is written, before the rename
	// commits it) — the torn-install window of Store.Save.
	PointSave Point = "warehouse.save"

	// The WAL's durability points (the wal package reports them to its
	// Hook by these same strings; it cannot import this package, so the
	// names are duplicated by contract, pinned by a test).
	PointWALAppend            Point = "wal.append"
	PointWALAppendDone        Point = "wal.append.done"
	PointWALCheckpointTemp    Point = "wal.checkpoint.temp"
	PointWALCheckpointInstall Point = "wal.checkpoint.install"
	PointWALCheckpointCompact Point = "wal.checkpoint.compact"
	// The File-level pair sits one level below the Log's append points:
	// wal.file.append fires before the OS write, wal.file.sync between
	// the write and the fsync — the page-cache window.
	PointWALFileAppend Point = "wal.file.append"
	PointWALFileSync   Point = "wal.file.sync"

	// The notification change-stream's durability points (same
	// duplicated-by-contract discipline as the wal ops, pinned by a
	// test): stream.append before a batch is encoded and written,
	// stream.read before any poll or recovery scan touches segment or
	// cursor bytes, cursor.commit between consuming a batch and writing
	// anything, cursor.commit.install just before the new offset reaches
	// the cursor file (the first commit's rename, a later one's in-place
	// slot write).
	PointStreamAppend  Point = "stream.append"
	PointStreamRead    Point = "stream.read"
	PointCursorCommit  Point = "cursor.commit"
	PointCursorInstall Point = "cursor.commit.install"
)

// Mode is the kind of fault a rule injects.
type Mode int

const (
	// ModeError makes the operation fail with ErrInjected.
	ModeError Mode = iota
	// ModeLatency delays the operation by the rule's Latency before
	// letting it proceed (on a wrapped conn this is how read/write
	// deadlines get exercised).
	ModeLatency
	// ModeDrop silently swallows the operation: a wrapped conn's Write
	// reports success without transmitting, a wrapped Delivery loses the
	// report without an error. The peer — or the chaos test's ledger —
	// notices, not the caller.
	ModeDrop
	// ModeTruncate lets a wrapped conn's Write transmit only half the
	// buffer before failing, leaving a torn frame on the wire.
	ModeTruncate
	// ModeCrash kills the process via the injector's Exit function
	// (os.Exit(2) by default) the moment the rule fires — the crash
	// harness's kill switch, planted at WAL and delivery points. A test
	// may stub Exit with a function that returns; the faulted operation
	// then fails with ErrInjected so the stubbed crash is still loud.
	ModeCrash
)

// String names the mode for stats and error text.
func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModeLatency:
		return "latency"
	case ModeDrop:
		return "drop"
	case ModeTruncate:
		return "truncate"
	case ModeCrash:
		return "crash"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ErrInjected is the root of every injected failure.
var ErrInjected = errors.New("faults: injected failure")

// Rule arms one fault at one point.
type Rule struct {
	Point Point
	Mode  Mode
	// Prob is the firing probability in [0,1]; 0 is treated as 1 (always
	// fire), so the zero value of a Rule with just Point set is "always
	// fail here".
	Prob float64
	// Count caps how many times the rule fires; 0 is unlimited.
	Count int
	// Skip lets the first Skip matching operations pass before the rule
	// becomes eligible to fire — "crash on the Nth append", the knob the
	// crash harness sweeps to hit every iteration of a durability point.
	Skip int
	// Latency is the delay of a ModeLatency fault.
	Latency time.Duration
	// Match, when non-empty, restricts the rule to keys containing it as
	// a substring (keys are URLs at the crawler points, remote addresses
	// at the conn point, subscription names at delivery).
	Match string
}

// Fault is one injected fault decision.
type Fault struct {
	Point   Point
	Mode    Mode
	Latency time.Duration
	// Err is the error the faulted operation should return (nil for
	// ModeLatency and ModeDrop, whose operations do not fail outright).
	Err error
}

type ruleState struct {
	rule  Rule
	fired int
	seen  int // matching operations skipped so far (Rule.Skip)
}

// PointStats counts injected faults at one point, by mode.
type PointStats struct {
	Errors    uint64
	Latencies uint64
	Drops     uint64
	Truncates uint64
	Crashes   uint64
}

// Total sums the counters.
func (p PointStats) Total() uint64 {
	return p.Errors + p.Latencies + p.Drops + p.Truncates + p.Crashes
}

// Injector decides, deterministically, which operations fault. The zero
// value is unusable; construct with New. Safe for concurrent use.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []*ruleState
	stats map[Point]*PointStats

	// Sleep performs ModeLatency delays. It defaults to time.Sleep;
	// virtual-clock tests may substitute a recording stub.
	//xyvet:ignore nondeterm -- fault injection deliberately delays I/O; the func is injectable
	Sleep func(time.Duration)

	// Exit performs ModeCrash kills. It defaults to os.Exit; tests that
	// only want to observe the crash decision substitute a function that
	// returns (it is called with the injector's mutex held, so a stub
	// must not call back into the injector).
	Exit func(code int)
}

// New returns an injector drawing from the given seed.
func New(seed int64) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		stats: make(map[Point]*PointStats),
		//xyvet:ignore nondeterm -- deliberate real delay, injectable for tests
		Sleep: time.Sleep,
		Exit:  os.Exit,
	}
}

// Enable arms a rule. Rules at the same point are consulted in the order
// they were armed; the first one that fires wins.
func (in *Injector) Enable(r Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = append(in.rules, &ruleState{rule: r})
}

// Clear disarms every rule (stats are kept). Operations in flight finish
// with whatever decision they already drew.
func (in *Injector) Clear() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = nil
}

// ClearPoint disarms the rules of one point.
func (in *Injector) ClearPoint(p Point) {
	in.mu.Lock()
	defer in.mu.Unlock()
	kept := in.rules[:0]
	for _, rs := range in.rules {
		if rs.rule.Point != p {
			kept = append(kept, rs)
		}
	}
	in.rules = kept
}

// Fire consults the rules of point for the given key and returns the
// fault to inject, or nil to proceed normally. A nil injector never
// faults, so callers can hold an optional *Injector field and call
// through it unconditionally.
func (in *Injector) Fire(p Point, key string) *Fault {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, rs := range in.rules {
		r := &rs.rule
		if r.Point != p {
			continue
		}
		if r.Match != "" && !strings.Contains(key, r.Match) {
			continue
		}
		if rs.seen < r.Skip {
			rs.seen++
			continue
		}
		if r.Count > 0 && rs.fired >= r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && in.rng.Float64() >= r.Prob {
			continue
		}
		rs.fired++
		st := in.stats[p]
		if st == nil {
			st = &PointStats{}
			in.stats[p] = st
		}
		f := &Fault{Point: p, Mode: r.Mode, Latency: r.Latency}
		switch r.Mode {
		case ModeError:
			st.Errors++
			f.Err = fmt.Errorf("%w: %s at %s (%s)", ErrInjected, r.Mode, p, key)
		case ModeLatency:
			st.Latencies++
		case ModeDrop:
			st.Drops++
		case ModeTruncate:
			st.Truncates++
			f.Err = fmt.Errorf("%w: %s at %s (%s)", ErrInjected, r.Mode, p, key)
		case ModeCrash:
			st.Crashes++
			if in.Exit != nil {
				// os.Exit never returns; stubs are documented not to
				// call back into the injector.
				//xyvet:ignore lockcheck
				in.Exit(2)
			}
			// Only a stubbed Exit reaches here; fail the operation so
			// the un-taken crash is still observable.
			f.Err = fmt.Errorf("%w: %s at %s (%s)", ErrInjected, r.Mode, p, key)
		}
		return f
	}
	return nil
}

// Check is the inline form used at the crawler seams: it fires point,
// applies latency faults via Sleep, and returns the error of error-mode
// faults (drop and truncate make no sense without a wrapped operation and
// are reported as errors too, so a misconfigured rule is loud).
func (in *Injector) Check(p Point, key string) error {
	f := in.Fire(p, key)
	if f == nil {
		return nil
	}
	if f.Mode == ModeLatency {
		in.sleep(f.Latency)
		return nil
	}
	if f.Err == nil {
		f.Err = fmt.Errorf("%w: %s at %s (%s)", ErrInjected, f.Mode, p, key)
	}
	return f.Err
}

func (in *Injector) sleep(d time.Duration) {
	if in == nil || d <= 0 {
		return
	}
	in.mu.Lock()
	sleep := in.Sleep
	in.mu.Unlock()
	if sleep != nil {
		sleep(d)
	}
}

// Stats snapshots the per-point injection counters.
func (in *Injector) Stats() map[Point]PointStats {
	out := make(map[Point]PointStats)
	if in == nil {
		return out
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for p, st := range in.stats {
		out[p] = *st
	}
	return out
}
