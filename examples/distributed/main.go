// Distributed matching: the Section 4.2 scalability story made concrete.
// The subscription base is sharded over partition blocks (the "Memory"
// distribution), each served by its own TCP server (Xyleme uses Corba
// between cluster nodes); the client adds every subscription to the block
// owning its partition and sends each document's atomic event set to the
// blocks holding the document's partitions, merging their matches —
// which are verified against a single local matcher.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"xymon/internal/webgen"
	"xymon/pubsub"
)

func main() {
	const (
		blocks   = 4
		cardA    = 500
		cardC    = 20000
		m        = 3
		p        = 20
		docCount = 1000
	)
	w := webgen.GenEventWorkload(2001, cardA, cardC, m, p, docCount)

	// One empty TCP server per block.
	addrs := make([]string, blocks)
	var servers []*pubsub.Server
	for i := range addrs {
		srv, err := pubsub.Serve("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		servers = append(servers, srv)
		addrs[i] = srv.Addr()
	}
	defer func() {
		for _, s := range servers {
			_ = s.Close()
		}
	}()

	client, err := pubsub.Dial(addrs...)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// Load the base through the client, and the single-machine reference
	// beside it.
	local := pubsub.NewMatcher()
	for id, events := range w.Complex {
		if err := local.Add(pubsub.ComplexID(id), events); err != nil {
			log.Fatal(err)
		}
		if err := client.Add(pubsub.ComplexID(id), events); err != nil {
			log.Fatal(err)
		}
	}
	for i, srv := range servers {
		fmt.Printf("block %d: %6d complex events, serving on %s\n", i, srv.Len(), srv.Addr())
	}

	// Match the document stream over the wire and verify against the
	// local matcher.
	totalMatches := 0
	for _, doc := range w.Docs {
		remote, err := client.Match(doc)
		if err != nil {
			log.Fatal(err)
		}
		localIDs := local.Match(doc)
		sort.Slice(remote, func(i, j int) bool { return remote[i] < remote[j] })
		sort.Slice(localIDs, func(i, j int) bool { return localIDs[i] < localIDs[j] })
		if len(remote) != len(localIDs) {
			log.Fatalf("divergence on %v: remote %d, local %d", doc, len(remote), len(localIDs))
		}
		for i := range remote {
			if remote[i] != localIDs[i] {
				log.Fatalf("divergence on %v", doc)
			}
		}
		totalMatches += len(remote)
	}
	fmt.Printf("\nmatched %d documents over %d TCP blocks: %d notifications, identical to the local matcher\n",
		len(w.Docs), blocks, totalMatches)

	// A spot check with a known document.
	rng := rand.New(rand.NewSource(7))
	doc := w.Docs[rng.Intn(len(w.Docs))]
	ids, _ := client.Match(doc)
	fmt.Printf("sample: document with %d atomic events triggered %d complex events\n", len(doc), len(ids))
}
