//go:build !race

package crawler

const raceEnabled = false
