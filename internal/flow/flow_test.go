package flow

import (
	"sync/atomic"
	"testing"

	"xymon/internal/alerter"
	"xymon/internal/warehouse"
)

func TestRunnerProcessesAll(t *testing.T) {
	var handled atomic.Int64
	r := NewRunner(4, 16, func(d *alerter.Doc) {
		handled.Add(1)
	})
	const n = 1000
	for i := 0; i < n; i++ {
		if err := r.Submit(&alerter.Doc{Meta: warehouse.Metadata{URL: "u"}}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	r.Close()
	if handled.Load() != n {
		t.Errorf("handled = %d, want %d", handled.Load(), n)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	r := NewRunner(1, 1, func(*alerter.Doc) {})
	r.Close()
	r.Close() // idempotent
	if err := r.Submit(&alerter.Doc{}); err != ErrClosed {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestRunnerClampsArguments(t *testing.T) {
	var handled atomic.Int64
	r := NewRunner(0, 0, func(*alerter.Doc) { handled.Add(1) })
	if err := r.Submit(&alerter.Doc{}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	r.Close()
	if handled.Load() != 1 {
		t.Errorf("handled = %d", handled.Load())
	}
}

// TestSubmitDuringClose races many submitters against Close: every Submit
// must either enqueue the document (counted by the handler) or return
// ErrClosed — never panic on a closed queue or lose a document silently.
// Run with -race to exercise the closeMu handshake.
func TestSubmitDuringClose(t *testing.T) {
	for round := 0; round < 50; round++ {
		var handled atomic.Uint64
		r := NewRunner(2, 1, func(*alerter.Doc) {
			handled.Add(1)
		})
		const submitters = 4
		var accepted atomic.Uint64
		done := make(chan struct{})
		for i := 0; i < submitters; i++ {
			go func() {
				defer func() { done <- struct{}{} }()
				for j := 0; j < 20; j++ {
					if err := r.Submit(&alerter.Doc{}); err != nil {
						if err != ErrClosed {
							t.Errorf("Submit: %v", err)
						}
						return
					}
					accepted.Add(1)
				}
			}()
		}
		r.Close() // races with the submitters
		for i := 0; i < submitters; i++ {
			<-done
		}
		if got, want := handled.Load(), accepted.Load(); got != want {
			t.Fatalf("round %d: handled %d of %d accepted documents", round, got, want)
		}
	}
}
