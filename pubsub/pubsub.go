// Package pubsub is the public face of the paper's primary contribution,
// usable independently of the XML machinery: the Monitoring Query
// Processor as a generic publish/subscribe matcher. "In general terms,
// each alert consists of a set of atomic events and the problem can be
// stated as finding in a flow of sets of atomic events, the sets that
// satisfy a conjunction of properties. Our algorithm was designed to
// support a flow of millions of alerts per day and millions of such
// conjunctions." (Section 1.)
//
// Atomic events are integer codes you assign; a subscription is a
// conjunction (set) of them; Match returns every registered conjunction
// contained in the incoming event set, in observed time O(p·log k). The
// structure follows the numeric order of the codes: give the events a
// message rarely carries the low ones, or every match pays (see Event).
//
//	m := pubsub.NewMatcher()
//	m.Add(1, []pubsub.Event{login})
//	m.Add(2, []pubsub.Event{purchase, bigBasket})
//	hits := m.Match(pubsub.Canonical([]pubsub.Event{login, purchase, bigBasket}))
//
// For scale-out, Serve empty blocks over TCP and Dial them: the client
// shards subscriptions over the blocks as they are added and sends each
// match to the blocks holding the document's partitions.
package pubsub

import (
	"fmt"

	"xymon/internal/cluster"
	"xymon/internal/core"
)

// Core matcher types, aliased from the implementation package.
type (
	// Event is an atomic event code; only its total order matters.
	Event = core.Event
	// ComplexID identifies a registered conjunction.
	ComplexID = core.ComplexID
	// EventSet is a canonical (sorted, deduplicated) set of events.
	EventSet = core.EventSet
	// Matcher is the dynamic Atomic Event Sets structure.
	Matcher = core.Matcher
	// Partitioned splits the subscription base across blocks.
	Partitioned = core.Partitioned
	// Stats reports structure and matching counters.
	Stats = core.Stats
	// Server serves one partition block over TCP.
	Server = cluster.Server
	// Client shards subscriptions over partition blocks and matches
	// against them.
	Client = cluster.RingClient
)

// Errors re-exported from the implementation.
var (
	// ErrEmptyComplexEvent rejects conjunctions with no events.
	ErrEmptyComplexEvent = core.ErrEmptyComplexEvent
	// ErrDuplicateComplexID rejects reuse of a registered id.
	ErrDuplicateComplexID = core.ErrDuplicateComplexID
	// ErrUnknownComplexID reports removal of an unregistered id.
	ErrUnknownComplexID = core.ErrUnknownComplexID
)

// NewMatcher returns an empty matcher.
func NewMatcher() *Matcher { return core.NewMatcher() }

// NewPartitioned returns a subscription-partitioned matcher with n blocks;
// with parallel set, Match fans out with one goroutine per block.
func NewPartitioned(n int, parallel bool) *Partitioned {
	return core.NewPartitioned(n, parallel)
}

// Canonical sorts and deduplicates events into an EventSet.
func Canonical(events []Event) EventSet { return core.Canonical(events) }

// Serve exposes an empty partition block over TCP; addr "127.0.0.1:0"
// picks a free port (see Server.Addr). Subscriptions reach it through a
// Client's Add.
func Serve(addr string) (*Server, error) {
	return cluster.ServeDynamic(addr, nil)
}

// Dial returns a client sharding over the given blocks, one replica per
// partition. Every address must be reachable at dial time — a cluster
// that starts degraded is a configuration error; degradation is for
// blocks that die later.
func Dial(addrs ...string) (*Client, error) {
	c := cluster.NewRingClientWithMap(cluster.BuildMap(1, 1, addrs))
	if up := c.Probe(); up != len(addrs) {
		_ = c.Close()
		return nil, fmt.Errorf("pubsub: %d of %d blocks reachable", up, len(addrs))
	}
	return c, nil
}
