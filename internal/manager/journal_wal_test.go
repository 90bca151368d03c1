package manager

import (
	"os"
	"path/filepath"
	"testing"

	"xymon/internal/wal"
)

// TestRecoverTwiceIsIdempotent pins the replay contract: recovering the
// same journal twice — the shape of a checkpoint whose tail overlaps it,
// or a harness restarting a half-recovered system — must not duplicate
// the subscription base or error out.
func TestRecoverTwiceIsIdempotent(t *testing.T) {
	j := &MemJournal{}
	r := newRig(t, j)
	r.subscribe(watchInria)
	r.subscribe(`subscription Second
monitoring select <S/> where URL extends "http://second.example/"
report when immediate`)

	r2 := newRig(t, nil)
	if err := r2.mgr.Recover(j); err != nil {
		t.Fatalf("first Recover: %v", err)
	}
	if err := r2.mgr.Recover(j); err != nil {
		t.Fatalf("second Recover: %v", err)
	}
	if subs := r2.mgr.Subscriptions(); len(subs) != 2 {
		t.Fatalf("after double recovery: %v", subs)
	}
	// The base still behaves: one notification per change, not two.
	r2.commitXML("http://inria.fr/Xy/a.xml", "", "", `<a><b>1</b></a>`)
	if n := r2.commitXML("http://inria.fr/Xy/a.xml", "", "", `<a><b>2</b></a>`); n != 1 {
		t.Errorf("notifications after double recovery = %d, want 1", n)
	}
}

// newWALJournal opens a WALJournal in its own directory.
func newWALJournal(t *testing.T, dir string) *WALJournal {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return NewWALJournal(l)
}

func TestWALJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := newWALJournal(t, dir)
	recs := []Record{
		{Op: "subscribe", Name: "a", Source: "monitor x"},
		{Op: "subscribe", Name: "b", Source: "monitor y"},
		{Op: "unsubscribe", Name: "a"},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2 := newWALJournal(t, dir)
	got, err := j2.Records()
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("recovered %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

// TestWALJournalCompactPlusTail pins the checkpoint protocol at the
// journal level: records live in the snapshot once compacted, new
// appends land in the tail, and recovery replays snapshot then tail.
func TestWALJournalCompactPlusTail(t *testing.T) {
	dir := t.TempDir()
	j := newWALJournal(t, dir)
	j.Append(Record{Op: "subscribe", Name: "a", Source: "sa"})
	j.Append(Record{Op: "subscribe", Name: "b", Source: "sb"})
	j.Append(Record{Op: "unsubscribe", Name: "b"})
	if err := j.Compact([]Record{{Op: "subscribe", Name: "a", Source: "sa"}}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	j.Append(Record{Op: "subscribe", Name: "c", Source: "sc"})
	j.Close()

	j2 := newWALJournal(t, dir)
	got, err := j2.Records()
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	want := []Record{
		{Op: "subscribe", Name: "a", Source: "sa"},
		{Op: "subscribe", Name: "c", Source: "sc"},
	}
	if len(got) != len(want) {
		t.Fatalf("records = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestWALJournalTornHeaderByte pins the satellite case: a crash that got
// exactly one byte of the next frame's header onto disk. Recovery keeps
// every intact record and truncates the stray byte.
func TestWALJournalTornHeaderByte(t *testing.T) {
	dir := t.TempDir()
	j := newWALJournal(t, dir)
	j.Append(Record{Op: "subscribe", Name: "a", Source: "sa"})
	j.Append(Record{Op: "subscribe", Name: "b", Source: "sb"})
	j.Close()

	// One byte of a frame header lands after the intact records.
	seg := filepath.Join(dir, "seg-00000001.wal")
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x2a}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2 := newWALJournal(t, dir)
	got, err := j2.Records()
	if err != nil {
		t.Fatalf("Records on one-byte torn header: %v", err)
	}
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" {
		t.Fatalf("recovered %+v", got)
	}
	// Appends resume cleanly on the truncated boundary.
	if err := j2.Append(Record{Op: "subscribe", Name: "c", Source: "sc"}); err != nil {
		t.Fatalf("Append after torn recovery: %v", err)
	}
	j2.Close()
	j3 := newWALJournal(t, dir)
	if got, _ := j3.Records(); len(got) != 3 || got[2].Name != "c" {
		t.Fatalf("after torn recovery + append: %+v", got)
	}
}

// TestManagerCheckpointCompactsJournal drives Checkpoint end to end: the
// journal shrinks to the live base and recovery from the compacted
// journal rebuilds the same subscriptions.
func TestManagerCheckpointCompactsJournal(t *testing.T) {
	dir := t.TempDir()
	j := newWALJournal(t, dir)
	r := newRig(t, j)
	r.subscribe(watchInria)
	r.subscribe(`subscription Gone
monitoring select <G/> where URL extends "http://gone.example/"
report when immediate`)
	if err := r.mgr.Unsubscribe("Gone"); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	j.Close()

	j2 := newWALJournal(t, dir)
	got, err := j2.Records()
	if err != nil {
		t.Fatalf("Records after checkpoint: %v", err)
	}
	// Compacted: the Gone subscribe/unsubscribe pair is gone, one live
	// record remains.
	if len(got) != 1 || got[0].Name != "WatchInria" || got[0].Op != "subscribe" {
		t.Fatalf("compacted journal = %+v", got)
	}
	r2 := newRig(t, nil)
	if err := r2.mgr.Recover(j2); err != nil {
		t.Fatalf("Recover from checkpoint: %v", err)
	}
	if subs := r2.mgr.Subscriptions(); len(subs) != 1 || subs[0] != "WatchInria" {
		t.Fatalf("recovered subs = %v", subs)
	}
}

// TestFileJournalAppendAndClose covers the one-handle journal: every
// Append is write + fsync on a handle held for the journal's lifetime,
// records are readable while it is open, and Close releases it.
func TestFileJournalAppendAndClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := NewFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(Record{Op: "subscribe", Name: string(rune('a' + i))}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if got, err := j.Records(); err != nil || len(got) != 5 {
		t.Fatalf("Records while open = %d, %v", len(got), err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j2, err := NewFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got, err := j2.Records(); err != nil || len(got) != 5 {
		t.Fatalf("Records after Close/reopen = %d, %v", len(got), err)
	}
}
