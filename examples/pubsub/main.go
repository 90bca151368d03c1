// Generic event-set matching: the paper stresses that the Monitoring
// Query Processor "can be used in a much larger setting — each alert
// consists of a set of atomic events and the problem is finding, in a
// flow of sets of atomic events, the sets that satisfy a conjunction of
// properties" (Section 1). This example uses the core matcher standalone
// as a tiny publish/subscribe broker over integer event codes, then splits
// the same subscriptions over four loopback TCP blocks (the "Memory"
// distribution of Section 4.2) and checks that they match identically.
package main

import (
	"fmt"
	"slices"

	"xymon/pubsub"
)

func main() {
	// Atomic events: arbitrary application facts.
	const (
		evLogin     pubsub.Event = iota + 1 // user logged in
		evPurchase                          // user bought something
		evBigBasket                         // basket over 100 EUR
		evNewDevice                         // unrecognised device
		evAbroad                            // session from abroad
	)

	m := pubsub.NewMatcher()
	subs := map[pubsub.ComplexID]string{
		1: "welcome-back (login)",
		2: "big-spender (purchase + big basket)",
		3: "fraud-check (login + new device + abroad)",
		4: "travel-offer (purchase + abroad)",
	}
	must(m.Add(1, []pubsub.Event{evLogin}))
	must(m.Add(2, []pubsub.Event{evPurchase, evBigBasket}))
	must(m.Add(3, []pubsub.Event{evLogin, evNewDevice, evAbroad}))
	must(m.Add(4, []pubsub.Event{evPurchase, evAbroad}))

	sessions := []struct {
		who    string
		events []pubsub.Event
	}{
		{"alice", []pubsub.Event{evLogin}},
		{"bob", []pubsub.Event{evLogin, evPurchase, evBigBasket}},
		{"carol", []pubsub.Event{evLogin, evNewDevice, evAbroad, evPurchase}},
		{"dave", []pubsub.Event{evPurchase}},
	}
	for _, s := range sessions {
		matched := m.Match(pubsub.Canonical(s.events))
		fmt.Printf("%-6s -> %d rule(s)\n", s.who, len(matched))
		for _, id := range matched {
			fmt.Printf("         %s\n", subs[id])
		}
	}

	// The same base split across 4 TCP blocks on loopback (the "Memory"
	// distribution of Section 4.2): the client shards each subscription to
	// the block owning its partition and merges the blocks' matches.
	var addrs []string
	for i := 0; i < 4; i++ {
		srv, err := pubsub.Serve("127.0.0.1:0")
		must(err)
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	client, err := pubsub.Dial(addrs...)
	must(err)
	defer client.Close()
	for id := range subs {
		must(client.Add(id, m.Definition(id)))
	}
	fmt.Println()
	for _, s := range sessions {
		set := pubsub.Canonical(s.events)
		remote, err := client.Match(set)
		must(err)
		single := m.Match(set)
		if !sameIDs(single, remote) {
			panic(fmt.Sprintf("%s: single matcher %v, 4-block cluster %v", s.who, single, remote))
		}
		fmt.Printf("%-6s single matcher and 4-block cluster agree: %d rule(s)\n", s.who, len(remote))
	}

	st := m.Stats()
	fmt.Printf("structure: %d complex events, %d atomic events, %d cells in %d tables\n",
		st.Complex, st.Atomic, st.Cells, st.Tables)
}

// sameIDs reports whether a and b hold the same ids in any order.
func sameIDs(a, b []pubsub.ComplexID) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
