//go:build race

package crawler

// raceEnabled reports whether the race detector is on: it slows the
// single-goroutine crawl simulation tenfold without watching anything.
const raceEnabled = true
