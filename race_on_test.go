//go:build race

package xymon

// raceEnabled reports whether the race detector is on: it randomises
// sync.Pool and moves stack objects to the heap, so allocation counts taken
// under it say nothing about the plain build.
const raceEnabled = true
