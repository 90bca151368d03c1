package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALRecords throws arbitrary bytes at the binary frame decoder.
// Whatever the input, the scan must terminate without panicking, never
// read past the buffer, and classify the tail as either intact frames,
// a torn final frame, or corruption — and on the frames it does accept,
// a re-encode must reproduce the bytes it consumed (the decoder accepts
// only what the encoder writes).
func FuzzWALRecords(f *testing.F) {
	seed := func(payloads ...[]byte) []byte {
		var buf []byte
		for _, p := range payloads {
			buf, _ = Binary{}.AppendFrame(buf, p)
		}
		return buf
	}
	f.Add([]byte{})
	f.Add(seed([]byte("hello")))
	f.Add(seed([]byte("a"), []byte(""), bytes.Repeat([]byte("b"), 300)))
	f.Add(seed([]byte("torn"))[:5])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1, 2, 3})

	fr := Binary{MaxFrame: 1 << 16}
	f.Fuzz(func(t *testing.T, data []byte) {
		var payloads [][]byte
		valid, err := scan(data, fr, func(p []byte) error {
			payloads = append(payloads, append([]byte(nil), p...))
			return nil
		})
		if valid < 0 || valid > len(data) {
			t.Fatalf("scan returned valid=%d for %d bytes", valid, len(data))
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("scan error is not ErrCorrupt: %v", err)
		}
		// Round-trip: re-encoding the accepted payloads must rebuild
		// exactly the prefix the scan consumed.
		var rebuilt []byte
		for _, p := range payloads {
			rebuilt, _ = fr.AppendFrame(rebuilt, p)
		}
		if !bytes.Equal(rebuilt, data[:valid]) {
			t.Fatalf("re-encode mismatch: %d accepted bytes, rebuilt %d", valid, len(rebuilt))
		}
	})
}

// FuzzCheckpointFile installs arbitrary bytes as a log's checkpoint file.
// Open and Recover must never panic: either Open fails — ErrCorrupt, or
// the error of an earlier build's checkpoint — or Recover replays exactly
// the frames after the meta frame.
func FuzzCheckpointFile(f *testing.F) {
	seed := func(payloads ...string) []byte {
		var buf []byte
		for _, p := range payloads {
			buf, _ = Binary{}.AppendFrame(buf, []byte(p))
		}
		return buf
	}
	f.Add([]byte{})
	f.Add(seed(`{"boundary":1,"records":true}`))
	f.Add(seed(`{"boundary":3,"retain":2,"records":true}`, "one", "", "three"))
	f.Add(seed(`{"boundary":2}`, "snapshot"))
	f.Add(seed(`{"boundary":2,"records":true}`, "torn")[:40])
	f.Add(seed(`{"boundary":0,"records":true}`))
	f.Add(seed(`{"boundary":2,"retain":5,"records":true}`))

	fr := Binary{}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, checkpointName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, errEarlierBuild) {
				t.Fatalf("Open failed with neither ErrCorrupt nor the earlier-build error: %v", err)
			}
			return
		}
		defer l.Close()
		var got [][]byte
		if err := l.Recover(func(p []byte) error {
			got = append(got, append([]byte(nil), p...))
			return nil
		}); err != nil {
			t.Fatalf("Recover after a clean Open: %v", err)
		}
		// The frames after the meta, decoded independently.
		var want [][]byte
		_, n, _ := fr.Next(data)
		for rest := data[n:]; len(rest) > 0; {
			p, size, err := fr.Next(rest)
			if err != nil {
				t.Fatalf("Open accepted a checkpoint whose records do not decode: %v", err)
			}
			want = append(want, p)
			rest = rest[size:]
		}
		if len(got) != len(want) {
			t.Fatalf("replayed %d records, the checkpoint holds %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d replayed as %q, the checkpoint holds %q", i, got[i], want[i])
			}
		}
	})
}
