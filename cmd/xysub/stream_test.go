package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xymon"
	"xymon/internal/stream"
)

// streamFixture publishes n records into a fresh stream directory,
// each behind an owner frame, as the reporter journals its notif
// records between its fired reports.
func streamFixture(t *testing.T, n int, o stream.Options) string {
	t.Helper()
	dir := t.TempDir()
	st, err := stream.Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	when := time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		if err := st.Write([]byte(fmt.Sprintf(`{"t":"notif","sub":"S","xml":"<r n=\"%d\"/>"}`, i))); err != nil {
			t.Fatal(err)
		}
		_, err := st.Publish([]stream.Record{{
			Subscription:  "S",
			Time:          when,
			Notifications: 1,
			XML:           fmt.Sprintf("<r n=\"%d\"/>", i),
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestStreamTailResumesFromCursor(t *testing.T) {
	dir := streamFixture(t, 5, stream.Options{})
	var out, errb strings.Builder
	if code := runStream([]string{"tail", "-dir", dir}, &out, &errb); code != 0 {
		t.Fatalf("tail exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("tail printed %d lines, want 5:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "0\t") || !strings.Contains(lines[0], "<r n=\"0\"/>") {
		t.Errorf("first line = %q", lines[0])
	}

	// Second tail: the committed cursor makes it a no-op.
	out.Reset()
	if code := runStream([]string{"tail", "-dir", dir}, &out, &errb); code != 0 {
		t.Fatalf("second tail exit %d", code)
	}
	if out.Len() != 0 {
		t.Errorf("second tail replayed committed records:\n%s", out.String())
	}
}

func TestStreamReplayDoesNotCommit(t *testing.T) {
	dir := streamFixture(t, 3, stream.Options{})
	var out, errb strings.Builder
	if code := runStream([]string{"replay", "-dir", dir}, &out, &errb); code != 0 {
		t.Fatalf("replay exit %d: %s", code, errb.String())
	}
	if got := strings.Count(out.String(), "\n"); got != 3 {
		t.Fatalf("replay printed %d records", got)
	}
	// Replay again from an explicit offset: still all there, cursor-free.
	out.Reset()
	if code := runStream([]string{"replay", "-dir", dir, "-from", "1"}, &out, &errb); code != 0 {
		t.Fatalf("replay -from exit %d", code)
	}
	if got := strings.Count(out.String(), "\n"); got != 2 {
		t.Fatalf("replay -from 1 printed %d records:\n%s", got, out.String())
	}
}

func TestStreamCommitRepositionsCursor(t *testing.T) {
	dir := streamFixture(t, 4, stream.Options{})
	var out, errb strings.Builder
	if code := runStream([]string{"commit", "-dir", dir, "-at", "2"}, &out, &errb); code != 0 {
		t.Fatalf("commit exit %d: %s", code, errb.String())
	}
	out.Reset()
	if code := runStream([]string{"tail", "-dir", dir}, &out, &errb); code != 0 {
		t.Fatalf("tail exit %d", code)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "2\t") {
		t.Fatalf("tail after commit -at 2:\n%s", out.String())
	}
}

func TestStreamTailResyncAfterTruncation(t *testing.T) {
	dir := streamFixture(t, 30, stream.Options{SegmentBytes: 256, MaxBehind: 5})
	// Cursor at 0, then retention truncates the old segments away.
	var out, errb strings.Builder
	if code := runStream([]string{"commit", "-dir", dir, "-at", "0"}, &out, &errb); code != 0 {
		t.Fatal(errb.String())
	}
	st, err := stream.Open(dir, stream.Options{SegmentBytes: 256, MaxBehind: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Checkpoint(func(func([]byte) error) error { return nil }); err != nil {
		t.Fatal(err)
	}
	first := st.Stats().FirstRetained
	st.Close()
	if first == 0 {
		t.Fatal("retention reclaimed nothing; fixture too small")
	}

	// Without -resync the truncation is an error...
	out.Reset()
	errb.Reset()
	if code := runStream([]string{"tail", "-dir", dir}, &out, &errb); code != 1 {
		t.Fatalf("tail over truncated offsets exit %d, want 1: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "truncated") {
		t.Errorf("stderr = %q", errb.String())
	}
	// ...with it, the reader skips to the oldest retained offset.
	out.Reset()
	errb.Reset()
	if code := runStream([]string{"tail", "-dir", dir, "-resync"}, &out, &errb); code != 0 {
		t.Fatalf("tail -resync exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], fmt.Sprintf("%d\t", first)) {
		t.Fatalf("resync should resume at %d:\n%s", first, out.String())
	}
	if !strings.Contains(errb.String(), "truncated by retention") {
		t.Errorf("resync notice missing: %q", errb.String())
	}
}

func TestStreamUsageErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := runStream(nil, &out, &errb); code != 2 {
		t.Errorf("no mode: exit %d", code)
	}
	if code := runStream([]string{"tail"}, &out, &errb); code != 2 {
		t.Errorf("no -dir: exit %d", code)
	}
	if code := runStream([]string{"commit", "-dir", t.TempDir()}, &out, &errb); code != 2 {
		t.Errorf("commit without -at: exit %d", code)
	}
	if code := runStream([]string{"bogus", "-dir", "x"}, &out, &errb); code != 2 {
		t.Errorf("unknown mode: exit %d", code)
	}
}

// TestStreamTailsSystemJournal: tail reads the reports a System with
// DurableDir fired straight out of <DurableDir>/reporter.
func TestStreamTailsSystemJournal(t *testing.T) {
	durable := t.TempDir()
	sys, err := xymon.New(xymon.Options{DurableDir: durable})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Subscribe(`subscription W
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://shop.example/" and modified self
report when immediate`); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"<p>1</p>", "<p>2</p>", "<p>3</p>"} {
		if _, err := sys.PushXML("http://shop.example/c.xml", "", "shopping", v); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := runStream([]string{"tail", "-dir", filepath.Join(durable, "reporter")}, &out, &errb); code != 0 {
		t.Fatalf("tail exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "0\t") || !strings.HasPrefix(lines[1], "1\t") ||
		!strings.Contains(lines[1], `url="http://shop.example/c.xml"`) {
		t.Fatalf("tail of the reporter journal printed:\n%s", out.String())
	}
}
