//go:build !race

package xymon

const raceEnabled = false
