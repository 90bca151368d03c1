// Package lib is the internal package whose exports the testonly rule
// judges: pub, outside internal/, is its only production importer.
package lib

// Used is called by pub.
func Used() int { return 1 }

// Dead has no caller anywhere.
func Dead() {} // want testonly

// TestOnly is called only from lib_test.go, which the loader never reads.
func TestOnly() {} // want testonly

// Limit is read by no one.
const Limit = 3 // want testonly

// Source is handed to pub as a math/rand Source: its methods are reached
// through the interface, so neither is flagged.
type Source struct{ n int64 }

func (s *Source) Int63() int64    { s.n++; return s.n }
func (s *Source) Seed(seed int64) { s.n = seed }

// Reset is no interface's method and has no caller.
func (s *Source) Reset() { s.n = 0 } // want testonly

// Client is re-exported by pub under an alias, so its methods are pub's
// public API even with no caller in the module.
type Client struct{}

func (c *Client) Health() bool { return true }

// Seam is a deliberate test seam, suppressed with a reason.
func Seam() {} //xyvet:ignore testonly the fixture's suppressed seam
