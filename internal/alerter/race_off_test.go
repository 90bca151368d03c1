//go:build !race

package alerter

const raceEnabled = false
