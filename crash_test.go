package xymon

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"xymon/internal/faults"
	"xymon/internal/stream"
)

// The kill-and-recover harness. TestCrashRecovery re-execs this test
// binary as a child running TestCrashChild, which drives the full
// pipeline with a faults.ModeCrash rule armed at one durability point —
// the process genuinely dies there with os.Exit(2), mid-append or
// mid-checkpoint, locks held and buffers unflushed. The parent then
// recovers a fresh System from the surviving disk state and asserts the
// durability invariants:
//
//   - every subscription the child saw acknowledged is still registered
//   - every accepted notification is delivered at least once (a crash
//     between sink accept and the done record may deliver twice — that
//     duplicate is the contract, a loss is a bug)
//   - a periodic continuous query neither re-fires at an unadvanced
//     clock nor skips its next due evaluation
//
// The child writes two fsynced ledgers the WAL never sees: acked.log
// records what the child observed completing (the ground truth of what
// recovery owes), delivered.log records what the sink accepted.

const (
	crashChildEnv = "XYMON_CRASH_CHILD"
	crashDirEnv   = "XYMON_CRASH_DIR"
	crashPointEnv = "XYMON_CRASH_POINT"
	crashMatchEnv = "XYMON_CRASH_MATCH"
	crashSkipEnv  = "XYMON_CRASH_SKIP"
)

var crashT0 = time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC)

const crashWatchSub = `subscription Watch
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://crash.example/" and modified self
report when immediate`

const crashPulseSub = `subscription Pulse
continuous WeeklyPulse
try weekly
report when immediate`

// ledger is an fsynced append-only line file: what reached it before a
// crash is exactly what a reader sees after (module a torn final line,
// which readLedger drops).
type ledger struct{ f *os.File }

func openLedger(path string) (*ledger, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &ledger{f: f}, nil
}

func (l *ledger) add(entry string) error {
	if _, err := l.f.WriteString(entry + "\n"); err != nil {
		return err
	}
	return l.f.Sync()
}

// Deliver makes the ledger a delivery sink: one line per accepted report.
func (l *ledger) Deliver(rep *Report) error {
	xml := ""
	if rep.Doc != nil {
		xml = strings.ReplaceAll(rep.Doc.XML(), "\n", " ")
	}
	return l.add("deliver " + rep.Subscription + " " + xml)
}

func (l *ledger) Close() error { return l.f.Close() }

// readLedger returns the complete lines of a ledger; a final line without
// its newline is the crash's torn write and is dropped.
func readLedger(path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	lines := strings.Split(string(data), "\n")
	return lines[:len(lines)-1]
}

// crashScenario kills the child at one durability point.
type crashScenario struct {
	name  string
	point faults.Point
	match string // rule key filter: WAL log name, consumer, or subscription
	skip  int    // let the first skip matching operations pass
	// tornTail names a WAL log ("reporter", "stream") whose active
	// segment additionally gets a partial binary frame appended before
	// recovery — the residue of a write the kernel cut mid-frame.
	tornTail string
}

var crashScenarios = []crashScenario{
	{name: "subs-append", point: faults.PointWALAppend, match: "subs"},
	{name: "subs-append-done", point: faults.PointWALAppendDone, match: "subs"},
	{name: "subs-second-append", point: faults.PointWALAppend, match: "subs", skip: 1},
	{name: "reporter-first-append", point: faults.PointWALAppend, match: "reporter"},
	{name: "reporter-mid-append", point: faults.PointWALAppend, match: "reporter", skip: 5},
	{name: "reporter-append-done", point: faults.PointWALAppendDone, match: "reporter", skip: 3, tornTail: "reporter"},
	{name: "trigger-mark-append", point: faults.PointWALAppend, match: "trigger"},
	{name: "checkpoint-temp", point: faults.PointWALCheckpointTemp},
	{name: "checkpoint-install", point: faults.PointWALCheckpointInstall},
	{name: "checkpoint-compact", point: faults.PointWALCheckpointCompact},
	{name: "checkpoint-reporter-install", point: faults.PointWALCheckpointInstall, match: "reporter"},
	{name: "delivery", point: faults.PointDelivery, skip: 2},
	{name: "delivery-ack", point: faults.PointDeliveryAck, skip: 1, tornTail: "reporter"},
	// Change-stream crash points: the writer side dies mid-append (no
	// phantom batch may survive), the consumer side dies between reading
	// a batch and committing its cursor (the batch must replay), and the
	// cursor install itself is torn (recovery resumes from the previous
	// durable offset — behind is replay, ahead would be a skip).
	{name: "stream-append", point: faults.PointWALAppend, match: "stream"},
	{name: "stream-append-done", point: faults.PointWALAppendDone, match: "stream", skip: 3, tornTail: "stream"},
	{name: "stream-publish", point: faults.PointStreamAppend, skip: 2},
	{name: "stream-consumer-read", point: faults.PointStreamRead, match: "watcher", skip: 2},
	{name: "cursor-commit", point: faults.PointCursorCommit, match: "watcher", skip: 1},
	{name: "cursor-install", point: faults.PointCursorInstall, match: "watcher", skip: 1},
	// The windows group commit widens. The reporter journal is written
	// record by record and fsynced by barriers: (1) before a document's
	// reports leave the Reporter, (3) after its Deliver loop; every
	// report-firing call of the child pays exactly that pair, so an even
	// skip lands on a barrier (1) and an odd one on a barrier (3). Killing
	// at wal.file.sync dies with the whole batch written and none of it
	// synced — the first document's notif + fired, a later one's with a
	// torn frame behind them, or a done record after the sink accepted.
	// Killing at wal.append.done on an even skip dies between barrier (1)
	// and the stream publish: the fired record is durable, the stream has
	// not seen the report, recovery must publish and deliver it.
	{name: "reporter-sync-first-batch", point: faults.PointWALFileSync, match: "reporter"},
	{name: "reporter-sync-later-batch", point: faults.PointWALFileSync, match: "reporter", skip: 4, tornTail: "reporter"},
	{name: "reporter-commit-before-publish", point: faults.PointWALAppendDone, match: "reporter", skip: 4},
	{name: "reporter-done-unsynced", point: faults.PointWALFileSync, match: "reporter", skip: 3},
}

// TestDurableLogsFireFileFaultPoints asserts the seam the new scenarios
// stand on: every log xymon.New opens under DurableDir reports its
// segment files' wal.file.append / wal.file.sync points to the injector,
// under the log's own key. Each (point, log) pair gets a latency rule
// with its own duration, so the injector's Sleep tells them apart.
func TestDurableLogsFireFileFaultPoints(t *testing.T) {
	in := faults.New(1)
	fired := make(map[time.Duration]int)
	in.Sleep = func(d time.Duration) { fired[d]++ }
	want := make(map[time.Duration]string)
	for _, point := range []faults.Point{faults.PointWALFileAppend, faults.PointWALFileSync} {
		for _, log := range []string{"subs", "reporter", "trigger", "stream"} {
			d := time.Duration(len(want) + 1)
			want[d] = string(point) + " on " + log
			in.Enable(faults.Rule{Point: point, Mode: faults.ModeLatency, Latency: d, Match: log})
		}
	}
	clk := &testClock{t: crashT0}
	sys, err := New(Options{Clock: clk.now, DurableDir: t.TempDir(), Faults: in})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sys.Close()
	for _, src := range []string{crashWatchSub, crashPulseSub} {
		if _, err := sys.Subscribe(src); err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
	}
	sys.Tick() // the weekly query runs, marks its evaluation, reports
	for d, what := range want {
		if fired[d] == 0 {
			t.Errorf("%s never fired", what)
		}
	}
}

// TestCrashChild is the harness's child body; standalone it only skips.
func TestCrashChild(t *testing.T) {
	if os.Getenv(crashChildEnv) != "1" {
		t.Skip("crash-harness child; driven by TestCrashRecovery")
	}
	dir := os.Getenv(crashDirEnv)
	skip, _ := strconv.Atoi(os.Getenv(crashSkipEnv))
	in := faults.New(1)
	in.Enable(faults.Rule{
		Point: faults.Point(os.Getenv(crashPointEnv)),
		Mode:  faults.ModeCrash,
		Match: os.Getenv(crashMatchEnv),
		Skip:  skip,
	})

	acked, err := openLedger(filepath.Join(dir, "acked.log"))
	if err != nil {
		t.Fatalf("acked ledger: %v", err)
	}
	delivered, err := openLedger(filepath.Join(dir, "delivered.log"))
	if err != nil {
		t.Fatalf("delivered ledger: %v", err)
	}
	clk := &testClock{t: crashT0}
	sys, err := New(Options{
		Clock:      clk.now,
		Delivery:   faults.WrapDelivery(delivered, in),
		DurableDir: filepath.Join(dir, "wal"),
		Faults:     in,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	mustAck := func(entry string) {
		if err := acked.add(entry); err != nil {
			t.Fatalf("ack %q: %v", entry, err)
		}
	}
	if _, err := sys.Subscribe(crashWatchSub); err != nil {
		t.Fatalf("Subscribe(Watch): %v", err)
	}
	mustAck("sub:Watch")
	if _, err := sys.Subscribe(crashPulseSub); err != nil {
		t.Fatalf("Subscribe(Pulse): %v", err)
	}
	mustAck("sub:Pulse")

	// First Tick evaluates the never-run weekly query; its immediate
	// report reaches the sink inside the call.
	sys.Tick()
	mustAck("cq:ran")

	for i := 0; i < 8; i++ {
		url := fmt.Sprintf("http://crash.example/p%d.xml", i)
		if _, err := sys.PushXML(url, "", "", "<page>v1</page>"); err != nil {
			t.Fatalf("push %s v1: %v", url, err)
		}
		n, err := sys.PushXML(url, "", "", "<page>v2</page>")
		if err != nil {
			t.Fatalf("push %s v2: %v", url, err)
		}
		if n > 0 {
			mustAck("push:" + url)
		}
		if i == 3 {
			if err := sys.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			mustAck("checkpoint")
		}
	}

	// Consumer phase: drain the change-stream the way an external pull
	// consumer would — bounded polls, cursor commit after each batch —
	// with the injector's rules live at the stream/cursor fault points.
	// consumed: lines record every offset the child observed; cursor:
	// lines record every durable commit it saw acknowledged.
	streamHook := func(op, key string) error { return in.Check(faults.Point(op), key) }
	rd, err := stream.OpenReader(filepath.Join(dir, "wal", "stream"), "watcher",
		stream.ReaderOptions{Hook: streamHook, MaxFetch: 2})
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	defer rd.Close()
	for {
		recs, err := rd.Poll(2)
		if err != nil {
			t.Fatalf("Poll: %v", err)
		}
		if len(recs) == 0 {
			break
		}
		for _, rec := range recs {
			mustAck(fmt.Sprintf("consumed:%d:%s:%s",
				rec.Offset, rec.Subscription, strings.ReplaceAll(rec.XML, "\n", " ")))
		}
		if err := rd.Commit(); err != nil {
			t.Fatalf("cursor commit: %v", err)
		}
		mustAck(fmt.Sprintf("cursor:%d", rd.Next()))
	}
	sys.Close()
	// Reaching here means the armed crash point never fired: exit 0 and
	// let the parent flag the dead scenario.
}

// TestCrashRecovery sweeps the crash matrix: one child execution per
// durability point, then an in-process recovery asserting the
// invariants against the child's ledgers.
func TestCrashRecovery(t *testing.T) {
	if os.Getenv(crashChildEnv) == "1" {
		t.Skip("crash child must not recurse")
	}
	if testing.Short() {
		t.Skip("re-exec harness skipped in -short")
	}
	for _, sc := range crashScenarios {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			runCrashChild(t, dir, sc)
			if sc.tornTail != "" {
				tearTail(t, dir, sc.tornTail)
			}
			verifyCrashRecovery(t, dir)
		})
	}
}

// runCrashChild re-execs the test binary and requires it to die at the
// scenario's crash point (exit code 2 — the injector's os.Exit).
func runCrashChild(t *testing.T, dir string, sc crashScenario) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashChild$")
	cmd.Env = append(os.Environ(),
		crashChildEnv+"=1",
		crashDirEnv+"="+dir,
		crashPointEnv+"="+string(sc.point),
		crashMatchEnv+"="+sc.match,
		crashSkipEnv+"="+strconv.Itoa(sc.skip),
	)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child exited cleanly: crash point %s (match %q, skip %d) never fired\n%s",
			sc.point, sc.match, sc.skip, out)
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("child exit = %v, want the injector's os.Exit(2)\n%s", err, out)
	}
}

// tearTail appends three bytes of a frame header to the named log's
// active segment: the torn write of a crash the WAL must truncate away
// on recovery.
func tearTail(t *testing.T, dir, log string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", log, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no %s segments to tear (err=%v)", log, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("tearing tail: %v", err)
	}
	if _, err := f.Write([]byte{0x5a, 0x13, 0x9a}); err != nil {
		t.Fatalf("tearing tail: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("tearing tail: %v", err)
	}
}

// verifyCrashRecovery recovers from the child's disk state and checks
// the durability invariants against its ledgers.
func verifyCrashRecovery(t *testing.T, dir string) {
	t.Helper()
	acked := readLedger(filepath.Join(dir, "acked.log"))
	delivered, err := openLedger(filepath.Join(dir, "delivered.log"))
	if err != nil {
		t.Fatalf("delivered ledger: %v", err)
	}
	defer delivered.Close()
	clk := &testClock{t: crashT0}
	sys, err := New(Options{
		Clock:      clk.now,
		Delivery:   delivered,
		DurableDir: filepath.Join(dir, "wal"),
	})
	if err != nil {
		t.Fatalf("recovery after crash failed: %v", err)
	}
	defer sys.Close()

	// Invariant: the subscription base. Everything the child saw
	// acknowledged must be registered (the converse — a subscription
	// durably journaled whose ack was lost in the crash — is allowed).
	subs := make(map[string]bool)
	for _, name := range sys.Manager.Subscriptions() {
		subs[name] = true
	}
	for _, a := range acked {
		if name, ok := strings.CutPrefix(a, "sub:"); ok && !subs[name] {
			t.Errorf("acknowledged subscription %q lost across the crash", name)
		}
	}

	// Invariant: the weekly query's schedule. At the crash-time clock it
	// evaluates at most once across repeated Ticks (zero if its mark was
	// durable, one if the crash beat the mark's append — at-least-once,
	// never a schedule reset that double-fires).
	sys.Tick()
	sys.Tick()
	atT0 := sys.Trigger.Evaluations()
	if atT0 > 1 {
		t.Errorf("weekly query evaluated %d times at the unadvanced clock", atT0)
	}
	// And once its period elapses it is due exactly once more — the
	// persisted mark must not push the schedule forward either.
	clk.advance(8 * 24 * time.Hour)
	sys.Tick()
	if subs["Pulse"] {
		if got := sys.Trigger.Evaluations(); got != atT0+1 {
			t.Errorf("due weekly query evaluated %d times after its period, want %d", got, atT0+1)
		}
		sys.Tick()
		if got := sys.Trigger.Evaluations(); got != atT0+1 {
			t.Errorf("weekly query re-fired immediately after evaluating: %d", got)
		}
	}
	// One more interval drains any retry backoff from redeliveries.
	clk.advance(time.Hour)
	sys.Tick()

	// Invariant: at-least-once delivery. Every notification the child saw
	// accepted — and the continuous query's report, if it ran — appears in
	// the delivered ledger, written either before the crash or by the
	// recovery above. Duplicates are legitimate; absences are losses.
	all := strings.Join(readLedger(filepath.Join(dir, "delivered.log")), "\n")
	for _, a := range acked {
		if url, ok := strings.CutPrefix(a, "push:"); ok && !strings.Contains(all, url) {
			t.Errorf("accepted notification for %s never delivered", url)
		}
		if a == "cq:ran" && !strings.Contains(all, "WeeklyPulse") {
			t.Errorf("continuous query report lost across the crash")
		}
	}
	if p := sys.Reporter.RetryPending(); p != 0 {
		t.Errorf("%d reports still stuck in the retry queue after recovery", p)
	}

	verifyStreamRecovery(t, dir, sys, acked)
}

// verifyStreamRecovery checks the change-stream's half of the
// at-least-once contract after a crash: the consumer's recovered cursor
// never skips past what it consumed (behind means replay, which is the
// contract; ahead would lose records), a replay from that cursor is
// offset-contiguous to the head with no phantom records, and every
// notification the child saw accepted is in the stream — consumed
// before the crash or replayable now.
func verifyStreamRecovery(t *testing.T, dir string, sys *System, acked []string) {
	t.Helper()
	consumed := make(map[uint64]string)
	var maxConsumed, lastCursor uint64
	for _, a := range acked {
		if rest, ok := strings.CutPrefix(a, "consumed:"); ok {
			parts := strings.SplitN(rest, ":", 3)
			off, err := strconv.ParseUint(parts[0], 10, 64)
			if len(parts) != 3 || err != nil {
				t.Fatalf("malformed consumed ledger line %q", a)
			}
			consumed[off] = parts[2]
			if off >= maxConsumed {
				maxConsumed = off
			}
		}
		if rest, ok := strings.CutPrefix(a, "cursor:"); ok {
			n, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				t.Fatalf("malformed cursor ledger line %q", a)
			}
			if n > lastCursor {
				lastCursor = n
			}
		}
	}

	rd, err := stream.OpenReader(filepath.Join(dir, "wal", "stream"), "watcher", stream.ReaderOptions{})
	if err != nil {
		t.Fatalf("reopening consumer after crash: %v", err)
	}
	defer rd.Close()
	committed := rd.Committed()
	if committed < lastCursor {
		t.Errorf("recovered cursor %d behind the last synced commit %d", committed, lastCursor)
	}
	if len(consumed) > 0 && committed > maxConsumed+1 {
		t.Errorf("recovered cursor %d skipped past the last consumed offset %d", committed, maxConsumed)
	}
	if len(consumed) == 0 && committed != 0 {
		t.Errorf("cursor committed at %d but the child consumed nothing", committed)
	}

	// Replay from the recovered cursor to the head. Offsets must be
	// contiguous — retention never runs past a live cursor in these
	// scenarios, so any gap is a silent skip, not a truncation — and
	// every record must be one the pipeline actually published.
	next := committed
	replayed := make(map[uint64]string)
	for {
		recs, err := rd.Poll(3)
		if err != nil {
			t.Fatalf("replay from recovered cursor %d: %v", committed, err)
		}
		if len(recs) == 0 {
			break
		}
		for _, rec := range recs {
			if rec.Offset != next {
				t.Fatalf("replay jumped from offset %d to %d", next, rec.Offset)
			}
			next = rec.Offset + 1
			if rec.Subscription != "Watch" && rec.Subscription != "Pulse" {
				t.Errorf("phantom stream record %d for subscription %q", rec.Offset, rec.Subscription)
			}
			replayed[rec.Offset] = rec.XML
		}
	}
	if head := sys.Stream.Next(); next != head {
		t.Errorf("replay stopped at offset %d, stream head is %d", next, head)
	}

	var seen strings.Builder
	for _, xml := range consumed {
		seen.WriteString(xml)
		seen.WriteByte('\n')
	}
	for _, xml := range replayed {
		seen.WriteString(xml)
		seen.WriteByte('\n')
	}
	for _, a := range acked {
		if url, ok := strings.CutPrefix(a, "push:"); ok && !strings.Contains(seen.String(), url) {
			t.Errorf("accepted notification for %s missing from the change-stream", url)
		}
	}
}
