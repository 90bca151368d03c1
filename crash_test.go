package xymon

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"xymon/internal/faults"
	"xymon/internal/stream"
	"xymon/internal/wal"
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
	// phase is where the kill must land: the workload step the child
	// names in its ledger as it dies.
	phase string
	// tornTail names a WAL log ("reporter") whose active segment
	// additionally gets a partial binary frame appended before recovery —
	// the residue of a write the kernel cut mid-frame.
	tornTail string
	// unsynced, when set, takes the page cache down with the process: the
	// reporter journal is cut back to what its last completed fsync
	// covered, and the cut must remove exactly these record types, in
	// order. Every report whose done the cut removes is owed again.
	unsynced string
	// firedLast: the kill lands right after barrier (1), so the journal
	// ends on the fired batch of a report no sink has seen. Recovery must
	// deliver it, and the stream must hold it once, at that batch's
	// offset: the fired record is the stream record, nothing is caught up.
	firedLast bool
	// tornSlot tears the newer slot of the consumer's cursor file — the
	// in-place write the kill cut off before its fsync — and recovery
	// must resume from the previous committed offset exactly.
	tornSlot bool
}

var crashScenarios = []crashScenario{
	{name: "subs-append", point: faults.PointWALAppend, match: "subs", phase: "subscribe:Watch"},
	{name: "subs-append-done", point: faults.PointWALAppendDone, match: "subs", phase: "subscribe:Watch"},
	{name: "subs-second-append", point: faults.PointWALAppend, match: "subs", skip: 1, phase: "subscribe:Pulse"},
	{name: "reporter-first-append", point: faults.PointWALAppend, match: "reporter", phase: "tick"},
	{name: "reporter-mid-append", point: faults.PointWALAppend, match: "reporter", skip: 5, phase: "push:p0:v2"},
	{name: "reporter-append-done", point: faults.PointWALAppendDone, match: "reporter", skip: 3, phase: "push:p1:v2", tornTail: "reporter"},
	{name: "trigger-mark-append", point: faults.PointWALAppend, match: "trigger", phase: "tick"},
	{name: "checkpoint-temp", point: faults.PointWALCheckpointTemp, phase: "checkpoint"},
	{name: "checkpoint-install", point: faults.PointWALCheckpointInstall, phase: "checkpoint"},
	{name: "checkpoint-compact", point: faults.PointWALCheckpointCompact, phase: "checkpoint"},
	{name: "checkpoint-reporter-install", point: faults.PointWALCheckpointInstall, match: "reporter", phase: "checkpoint"},
	{name: "delivery", point: faults.PointDelivery, skip: 2, phase: "push:p1:v2"},
	{name: "delivery-ack", point: faults.PointDeliveryAck, skip: 1, phase: "push:p0:v2", tornTail: "reporter"},
	// Change-stream crash points. The stream is the reporter journal's
	// fired batches, and stream.append fires on entry to each batch
	// write: the writer side dies before the tick's report, then a
	// document's, reaches the log (no phantom batch may survive; the
	// buffered notification reports on recovery). The consumer side dies
	// between reading a batch and committing its cursor (the batch must
	// replay), and the second commit — the first in place — dies before
	// its slot write or with the slot written, unsynced and torn
	// (recovery resumes from the previous durable offset: behind is
	// replay, ahead would be a skip). A kill after a batch's fsync is a
	// kill after barrier (1): reporter-append-done below, torn tail and
	// all, and reporter-commit-before-publish.
	{name: "stream-append", point: faults.PointStreamAppend, match: "reporter", phase: "tick"},
	{name: "stream-publish", point: faults.PointStreamAppend, match: "reporter", skip: 2, phase: "push:p1:v2"},
	{name: "stream-consumer-read", point: faults.PointStreamRead, match: "watcher", skip: 2, phase: "poll:2"},
	{name: "cursor-commit", point: faults.PointCursorCommit, match: "watcher", skip: 1, phase: "commit:4"},
	{name: "cursor-install", point: faults.PointCursorInstall, match: "watcher", skip: 1, phase: "commit:4"},
	{name: "cursor-torn-slot", point: faults.PointWALFileSync, match: "watcher", phase: "commit:4", tornSlot: true},
	// The windows group commit widens. The reporter journal is written
	// record by record; barrier (1), one fsync before a call's reports
	// leave the Reporter, makes its notif and fired records durable
	// together with the done records of the call before it, which ride
	// it. A Tick, a checkpoint's rotation and Close sync them too. In
	// this workload the reporter's fsyncs are, by skip: 0 the tick's
	// batch, 1 the reporter Tick syncing its done, 2–5 the barriers (1)
	// of p0–p3, 6 the checkpoint, 7–10 those of p4–p7, 11 Close. A kill
	// at wal.file.sync cuts the journal back to the previous fsync: the
	// first batch lost whole; the first batch after the checkpoint, with
	// a torn frame behind the cut; and a barrier (1) carrying the
	// previous document's done, whose report recovery must deliver again.
	// A kill at wal.append.done on a barrier (1) dies right after it,
	// before any sink sees the report: its fired record — its stream
	// record — is durable, and recovery must deliver it.
	{name: "reporter-sync-first-batch", point: faults.PointWALFileSync, match: "reporter", phase: "tick", unsynced: "notif fired"},
	{name: "reporter-sync-later-batch", point: faults.PointWALFileSync, match: "reporter", skip: 7, phase: "push:p4:v2", unsynced: "notif fired", tornTail: "reporter"},
	{name: "reporter-commit-before-publish", point: faults.PointWALAppendDone, match: "reporter", skip: 4, phase: "push:p2:v2", firedLast: true},
	{name: "reporter-done-unsynced", point: faults.PointWALFileSync, match: "reporter", skip: 3, phase: "push:p1:v2", unsynced: "done notif fired"},
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
		for _, log := range []string{"subs", "reporter", "trigger"} {
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

// TestNewRefusesLegacyStreamDir: a change-stream left in
// <DurableDir>/stream by the earlier layout numbers its offsets apart
// from the reporter journal's, so a consumer still pointed at it would
// silently see nothing new. New refuses to start beside it, naming the
// directory and the command that drains it; once it is gone, New
// starts.
func TestNewRefusesLegacyStreamDir(t *testing.T) {
	durable := t.TempDir()
	legacy := filepath.Join(durable, "stream")
	old, err := stream.Open(legacy, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Publish([]stream.Record{{Subscription: "Watch", XML: "<Report/>"}}); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	sys, err := New(Options{DurableDir: durable})
	if err == nil {
		sys.Close()
		t.Fatal("New started beside a legacy stream directory")
	}
	if drain := "xysub stream replay -dir " + legacy; !strings.Contains(err.Error(), drain) {
		t.Fatalf("New's error %q does not name the drain command %q", err, drain)
	}
	if err := os.RemoveAll(legacy); err != nil {
		t.Fatal(err)
	}
	sys, err = New(Options{DurableDir: durable})
	if err != nil {
		t.Fatalf("New after the legacy directory was drained: %v", err)
	}
	sys.Close()
}

// TestCheckpointBesideCorruptCursor: a pull consumer's damaged cursor
// file makes System.Checkpoint report it, but only after every journal —
// the reporter's, whose retention reads the cursors, included — has
// installed its checkpoint.
func TestCheckpointBesideCorruptCursor(t *testing.T) {
	durable := t.TempDir()
	sys, err := New(Options{DurableDir: durable})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	cursors := filepath.Join(durable, "reporter", "cursors")
	if err := os.MkdirAll(cursors, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cursors, "broken.cur"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := sys.Checkpoint(); err == nil || !strings.Contains(err.Error(), "broken.cur") {
		t.Fatalf("Checkpoint beside a corrupt cursor = %v, want an error naming it", err)
	}
	for _, log := range []string{"subs", "reporter", "trigger"} {
		if _, err := os.Stat(filepath.Join(durable, log, "checkpoint.wal")); err != nil {
			t.Errorf("%s/ was not checkpointed: %v", log, err)
		}
	}
}

// crashSpy tells the parent where a kill landed. The child names the
// workload step it is in; a latency rule at wal.file.sync on the
// reporter journal notes, before each fsync, how far into the active
// segment it reaches; the injector's Exit writes both to the acked
// ledger before dying. A kill at wal.file.sync fires before the
// latency rule, so what it reads is the reach of the last fsync that
// completed: the journal a power loss there would leave.
type crashSpy struct {
	dir    string // the reporter journal
	mu     sync.Mutex
	phase  string
	seg    string // the segment the last fsync covered
	synced int64  // its size then
}

func (s *crashSpy) at(phase string) {
	s.mu.Lock()
	s.phase = phase
	s.mu.Unlock()
}

func (s *crashSpy) noteSync() {
	seg := activeSegment(s.dir)
	fi, err := os.Stat(seg)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.seg, s.synced = filepath.Base(seg), fi.Size()
	s.mu.Unlock()
}

// landing is the ledger line: "landed <phase> <segment> <synced size>",
// the segment "-" before the journal's first fsync.
func (s *crashSpy) landing() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("landed %s %s %d", s.phase, cmp.Or(s.seg, "-"), s.synced)
}

// TestCrashChild is the harness's child body; standalone it only skips.
func TestCrashChild(t *testing.T) {
	if os.Getenv(crashChildEnv) != "1" {
		t.Skip("crash-harness child; driven by TestCrashRecovery")
	}
	dir := os.Getenv(crashDirEnv)
	skip, _ := strconv.Atoi(os.Getenv(crashSkipEnv))
	acked, err := openLedger(filepath.Join(dir, "acked.log"))
	if err != nil {
		t.Fatalf("acked ledger: %v", err)
	}
	in := faults.New(1)
	in.Enable(faults.Rule{
		Point: faults.Point(os.Getenv(crashPointEnv)),
		Mode:  faults.ModeCrash,
		Match: os.Getenv(crashMatchEnv),
		Skip:  skip,
	})
	spy := &crashSpy{dir: filepath.Join(dir, "wal", "reporter"), phase: "new"}
	in.Enable(faults.Rule{Point: faults.PointWALFileSync, Mode: faults.ModeLatency, Latency: 1, Match: "reporter"})
	in.Sleep = func(time.Duration) { spy.noteSync() }
	in.Exit = func(code int) {
		_ = acked.add(spy.landing())
		os.Exit(code)
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
	spy.at("subscribe:Watch")
	if _, err := sys.Subscribe(crashWatchSub); err != nil {
		t.Fatalf("Subscribe(Watch): %v", err)
	}
	mustAck("sub:Watch")
	spy.at("subscribe:Pulse")
	if _, err := sys.Subscribe(crashPulseSub); err != nil {
		t.Fatalf("Subscribe(Pulse): %v", err)
	}
	mustAck("sub:Pulse")

	// First Tick evaluates the never-run weekly query; its immediate
	// report reaches the sink inside the call.
	spy.at("tick")
	sys.Tick()
	mustAck("cq:ran")

	for i := 0; i < 8; i++ {
		url := fmt.Sprintf("http://crash.example/p%d.xml", i)
		spy.at(fmt.Sprintf("push:p%d:v1", i))
		if _, err := sys.PushXML(url, "", "", "<page>v1</page>"); err != nil {
			t.Fatalf("push %s v1: %v", url, err)
		}
		spy.at(fmt.Sprintf("push:p%d:v2", i))
		n, err := sys.PushXML(url, "", "", "<page>v2</page>")
		if err != nil {
			t.Fatalf("push %s v2: %v", url, err)
		}
		if n > 0 {
			mustAck("push:" + url)
		}
		if i == 3 {
			spy.at("checkpoint")
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
	spy.at("consume")
	streamHook := func(op, key string) error { return in.Check(faults.Point(op), key) }
	rd, err := stream.OpenReader(filepath.Join(dir, "wal", "reporter"), "watcher",
		stream.ReaderOptions{Hook: streamHook, MaxFetch: 2})
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	defer rd.Close()
	for {
		spy.at(fmt.Sprintf("poll:%d", rd.Next()))
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
		spy.at(fmt.Sprintf("commit:%d", rd.Next()))
		if err := rd.Commit(); err != nil {
			t.Fatalf("cursor commit: %v", err)
		}
		mustAck(fmt.Sprintf("cursor:%d", rd.Next()))
	}
	spy.at("close")
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
			land := crashLanded(t, dir)
			if land.phase != sc.phase {
				t.Fatalf("the kill landed in %q, the scenario aims at %q", land.phase, sc.phase)
			}
			var owed []string // URLs recovery must deliver (again)
			if sc.unsynced != "" {
				owed = losePageCache(t, dir, land, sc.unsynced)
			}
			var last firedReport
			if sc.firedLast {
				last = lastFired(t, dir)
				owed = append(owed, last.url)
			}
			if sc.tornTail != "" {
				tearTail(t, dir, sc.tornTail)
			}
			if sc.tornSlot {
				tearNewerSlot(t, dir)
			}
			before := strings.Join(readLedger(filepath.Join(dir, "delivered.log")), "\n")
			delivered, streamed := verifyCrashRecovery(t, dir, sc)
			for _, url := range owed {
				if strings.Count(delivered, url) <= strings.Count(before, url) {
					t.Errorf("the report for %s was owed a delivery, and recovery did not deliver it again", url)
				}
			}
			if sc.firedLast {
				copies := 0
				for _, xml := range streamed {
					copies += strings.Count(xml, last.url)
				}
				if copies != 1 || !strings.Contains(streamed[last.off], last.url) {
					t.Errorf("after recovery the stream holds the report for %s %d times, want once at its fired offset %d", last.url, copies, last.off)
				}
			}
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
	seg := activeSegment(filepath.Join(dir, "wal", log))
	if seg == "" {
		t.Fatalf("no %s segments to tear", log)
	}
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
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

// activeSegment returns the path of a WAL directory's newest segment,
// or "" when it has none.
func activeSegment(dir string) string {
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) == 0 {
		return ""
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

// crashLanding is where the child's kill landed, from its ledger.
type crashLanding struct {
	phase  string
	seg    string // the reporter segment its last completed fsync covered
	synced int    // and how far
}

func crashLanded(t *testing.T, dir string) crashLanding {
	t.Helper()
	for _, a := range readLedger(filepath.Join(dir, "acked.log")) {
		f := strings.Fields(a)
		if len(f) == 4 && f[0] == "landed" {
			n, err := strconv.Atoi(f[3])
			if err != nil {
				t.Fatalf("malformed landing %q", a)
			}
			return crashLanding{phase: f[1], seg: f[2], synced: n}
		}
	}
	t.Fatal("the child died without recording where")
	return crashLanding{}
}

// journalRecord is what the harness reads of a reporter journal record.
type journalRecord struct {
	T   string `json:"t"`
	ID  uint64 `json:"id"`
	XML string `json:"xml"`
}

// readJournal decodes a reporter segment's frames up to a torn tail;
// ends[i] is the byte offset where record i ends. A fired record is a
// stream batch ('S', version, base offset, ...): the workload has no
// virtual followers, so it holds one report, whose id is its offset.
func readJournal(t *testing.T, data []byte) (recs []journalRecord, ends []int) {
	t.Helper()
	for off := 0; off < len(data); {
		payload, size, err := wal.Binary{}.Next(data[off:])
		if err != nil {
			break
		}
		var rec journalRecord
		if payload[0] == 'S' {
			rec = journalRecord{T: "fired", ID: binary.LittleEndian.Uint64(payload[2:10]), XML: string(payload)}
		} else if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatalf("journal record at byte %d: %v", off, err)
		}
		off += size
		recs, ends = append(recs, rec), append(ends, off)
	}
	return recs, ends
}

var crashURL = regexp.MustCompile(`http://crash\.example/p\d+\.xml`)

// losePageCache cuts the reporter's active segment back to what the
// child's last completed fsync covered (all of it, if that fsync was on
// an older segment), requires the cut to remove exactly the record
// types want, and returns the URLs of the reports whose done it removed.
func losePageCache(t *testing.T, dir string, land crashLanding, want string) []string {
	t.Helper()
	seg := activeSegment(filepath.Join(dir, "wal", "reporter"))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	cut := 0
	if filepath.Base(seg) == land.seg {
		cut = land.synced
	}
	recs, ends := readJournal(t, data)
	fired := make(map[uint64]string)
	var lost []string
	var owed []string
	for i, rec := range recs {
		switch {
		case ends[i] <= cut:
			if rec.T == "fired" {
				fired[rec.ID] = crashURL.FindString(rec.XML)
			}
		case rec.T == "done" && fired[rec.ID] == "":
			t.Fatalf("the cut removes the done of report %d, fired before this segment", rec.ID)
		case rec.T == "done":
			owed = append(owed, fired[rec.ID])
			fallthrough
		default:
			lost = append(lost, rec.T)
		}
	}
	if got := strings.Join(lost, " "); got != want {
		t.Fatalf("the fsync the kill cut off covered %q, the scenario aims at %q", got, want)
	}
	if err := os.Truncate(seg, int64(cut)); err != nil {
		t.Fatal(err)
	}
	return owed
}

// firedReport is a report's URL and its fired record's offset.
type firedReport struct {
	url string
	off uint64
}

// lastFired returns the report whose fired batch ends the reporter
// journal, requiring that a consumer can already read it there.
func lastFired(t *testing.T, dir string) firedReport {
	t.Helper()
	data, err := os.ReadFile(activeSegment(filepath.Join(dir, "wal", "reporter")))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := readJournal(t, data)
	if len(recs) == 0 || recs[len(recs)-1].T != "fired" {
		t.Fatalf("the journal does not end on a fired record: %v", recs)
	}
	last := firedReport{url: crashURL.FindString(recs[len(recs)-1].XML), off: recs[len(recs)-1].ID}
	if !strings.Contains(streamRecords(t, dir)[last.off], last.url) {
		t.Fatalf("the stream does not hold the report for %s at its fired offset %d", last.url, last.off)
	}
	return last
}

// streamRecords is every record the stream retains: its XML by offset.
func streamRecords(t *testing.T, dir string) map[uint64]string {
	t.Helper()
	rd, err := stream.OpenReader(filepath.Join(dir, "wal", "reporter"), "probe", stream.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	out := make(map[uint64]string)
	for {
		recs, err := rd.Poll(0)
		if err != nil {
			t.Fatalf("reading the stream: %v", err)
		}
		if len(recs) == 0 {
			return out
		}
		for _, rec := range recs {
			out[rec.Offset] = rec.XML
		}
	}
}

// tearNewerSlot damages the tail of the consumer cursor's newer slot —
// a write cut short before its fsync — leaving the older one intact.
func tearNewerSlot(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, "wal", "reporter", "cursors", "watcher.cur")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const sector = 512
	newer, seq := -1, uint64(0)
	for i := 0; i*sector < len(data); i++ {
		payload, _, err := wal.Binary{}.Next(data[i*sector:])
		if err != nil || len(payload) != 16 {
			t.Fatalf("cursor slot %d is not intact before the tear: %v", i, err)
		}
		if s := binary.LittleEndian.Uint64(payload); newer < 0 || s > seq {
			newer, seq = i, s
		}
	}
	if newer < 0 || len(data) <= sector {
		t.Fatalf("cursor file of %d bytes has no second slot to tear", len(data))
	}
	clear(data[newer*sector+16 : newer*sector+24]) // the new offset never landed
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// verifyCrashRecovery recovers from the child's disk state and checks
// the durability invariants against its ledgers. It returns the
// delivered ledger and the stream's records after recovery.
func verifyCrashRecovery(t *testing.T, dir string, sc crashScenario) (delivered string, streamed map[uint64]string) {
	t.Helper()
	acked := readLedger(filepath.Join(dir, "acked.log"))
	sink, err := openLedger(filepath.Join(dir, "delivered.log"))
	if err != nil {
		t.Fatalf("delivered ledger: %v", err)
	}
	defer sink.Close()
	clk := &testClock{t: crashT0}
	sys, err := New(Options{
		Clock:      clk.now,
		Delivery:   sink,
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

	verifyStreamRecovery(t, dir, sys, acked, sc.tornSlot)
	return all, streamRecords(t, dir)
}

// verifyStreamRecovery checks the change-stream's half of the
// at-least-once contract after a crash: the consumer's recovered cursor
// never skips past what it consumed (behind means replay, which is the
// contract; ahead would lose records), a replay from that cursor is
// offset-contiguous to the head with no phantom records, and every
// notification the child saw accepted is in the stream — consumed
// before the crash or replayable now.
func verifyStreamRecovery(t *testing.T, dir string, sys *System, acked []string, exact bool) {
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

	rd, err := stream.OpenReader(filepath.Join(dir, "wal", "reporter"), "watcher", stream.ReaderOptions{})
	if err != nil {
		t.Fatalf("reopening consumer after crash: %v", err)
	}
	defer rd.Close()
	committed := rd.Committed()
	if committed < lastCursor {
		t.Errorf("recovered cursor %d behind the last synced commit %d", committed, lastCursor)
	}
	if exact && committed != lastCursor {
		t.Errorf("recovered cursor %d, want the previous commit %d: the torn slot must not count", committed, lastCursor)
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
