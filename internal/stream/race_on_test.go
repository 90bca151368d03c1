//go:build race

package stream

// raceEnabled reports whether the race detector is on: it moves stack
// objects to the heap, so allocation counts taken under it say nothing
// about the plain build.
const raceEnabled = true
