// Command xycluster runs the distributed Monitoring Query Processor from
// the shell: the Section 4.2 distribution over real processes.
//
//	xycluster serve -addr :7070
//	    serve an empty block over TCP; subscriptions arrive over the wire
//
//	xycluster load -blocks host1:7070,host2:7070 -c 100000 -a 10000 -m 3
//	    generate a synthetic subscription base and shard it over the
//	    blocks, one replica per partition; blocks that joined a
//	    coordinator hand the client its map, and the base follows it
//
//	xycluster coord -addr :7060 -wal dir/ -replicas 2
//	    run the partition-map coordinator: admits block joins/leaves,
//	    rebalances partitions with WAL-backed handoffs and installs each
//	    map on the blocks; load, match and bench take block addresses,
//	    never the coordinator's
//
//	xycluster serve -addr :7070 -coord host:7060
//	    serve a block and join the coordinator's cluster; SIGINT/SIGTERM
//	    leaves gracefully, migrating subscriptions away
//
//	xycluster match -blocks host1:7070,host2:7070 1,3,5
//	    match one atomic event set against the blocks and print the
//	    complex event ids
//
//	xycluster bench -blocks host1:7070,host2:7070 -p 20 -a 10000 -n 5000
//	    drive random documents through the cluster and report the rate
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"xymon/internal/cluster"
	"xymon/internal/core"
	"xymon/internal/webgen"
	"xymon/pubsub"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "load":
		err = runLoad(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "coord":
		err = runCoord(os.Args[2:])
	case "match":
		err = runMatch(os.Args[2:])
	case "bench":
		err = runBench(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "xycluster: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  xycluster serve -addr HOST:PORT [-coord HOST:PORT] [-advertise HOST:PORT]
  xycluster load -blocks ADDR[,ADDR...] [-c N] [-a N] [-m N] [-seed N]
  xycluster coord -addr HOST:PORT -wal DIR [-replicas N]
  xycluster match -blocks ADDR[,ADDR...] EVENT[,EVENT...]
  xycluster bench -blocks ADDR[,ADDR...] [-p N] [-a N] [-n N] [-seed N]`)
}

// runLoad shards a synthetic subscription base over the blocks through
// the R = 1 ring client.
func runLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	blocks := fs.String("blocks", "", "comma-separated block addresses")
	cardC := fs.Int("c", 100000, "complex events")
	cardA := fs.Int("a", 10000, "atomic event universe")
	m := fs.Int("m", 3, "events per complex event")
	seed := fs.Int64("seed", 1, "workload seed")
	fs.Parse(args)
	addrs := parseBlocks(*blocks)
	if len(addrs) == 0 {
		return fmt.Errorf("load needs -blocks")
	}
	client, err := pubsub.Dial(addrs...)
	if err != nil {
		return err
	}
	defer client.Close()
	w := webgen.GenEventWorkload(*seed, *cardA, *cardC, *m, 1, 1)
	for id, events := range w.Complex {
		if err := client.Add(core.ComplexID(id), events); err != nil {
			return err
		}
	}
	fmt.Printf("loaded %d complex events over %d blocks\n", len(w.Complex), len(addrs))
	return nil
}

// runServe serves an empty block until SIGINT/SIGTERM, then drains it.
// With -coord the block joins that coordinator's cluster once bound, and
// leaves it before draining: the coordinator migrates the block's
// partitions away before the leave acks.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	coord := fs.String("coord", "", "coordinator address to join")
	advertise := fs.String("advertise", "", "address the partition map knows this block by (default: the bound listen address)")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("serve takes no arguments; subscriptions arrive over the wire (see load)")
	}
	var opts []cluster.ServerOption
	if *advertise != "" {
		opts = append(opts, cluster.WithAdvertise(*advertise))
	}
	srv, err := cluster.ServeDynamic(*addr, nil, opts...)
	if err != nil {
		return err
	}
	self := *advertise
	if self == "" {
		self = srv.Addr()
	}
	if *coord != "" {
		if err := cluster.JoinCluster(*coord, self); err != nil {
			_ = srv.Close()
			return fmt.Errorf("join %s: %w", *coord, err)
		}
		fmt.Printf("block %s joined cluster at %s\n", self, *coord)
	} else {
		fmt.Printf("serving an empty block on %s\n", srv.Addr())
	}
	waitForSignal()
	if *coord != "" {
		fmt.Println("shutting down: leaving cluster")
		if err := cluster.LeaveCluster(*coord, self); err != nil {
			fmt.Fprintf(os.Stderr, "xycluster: leave: %v (shutting down anyway)\n", err)
		}
	}
	fmt.Println("shutting down: draining connections")
	return srv.Close()
}

func runCoord(args []string) error {
	fs := flag.NewFlagSet("coord", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7060", "listen address")
	walDir := fs.String("wal", "", "transfer journal directory")
	replicas := fs.Int("replicas", 2, "replication factor R")
	fs.Parse(args)
	if *walDir == "" {
		return fmt.Errorf("coord needs -wal (the transfer journal directory)")
	}
	c, err := cluster.NewCoord(*walDir, *replicas)
	if err != nil {
		return err
	}
	if err := c.ServeCoord(*addr); err != nil {
		_ = c.Close()
		return err
	}
	fmt.Printf("coordinator on %s (R=%d, journal %s)\n", c.Addr(), *replicas, *walDir)
	waitForSignal()
	fmt.Println("shutting down coordinator")
	return c.Close()
}

// waitForSignal blocks until SIGINT or SIGTERM.
func waitForSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	signal.Stop(sig)
}

func parseBlocks(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func runMatch(args []string) error {
	fs := flag.NewFlagSet("match", flag.ExitOnError)
	blocks := fs.String("blocks", "", "comma-separated block addresses")
	fs.Parse(args)
	addrs := parseBlocks(*blocks)
	if len(addrs) == 0 || fs.NArg() != 1 {
		return fmt.Errorf("match needs -blocks and one event list")
	}
	var events []core.Event
	for _, part := range strings.Split(fs.Arg(0), ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
		if err != nil {
			return fmt.Errorf("bad event %q: %v", part, err)
		}
		events = append(events, core.Event(v))
	}
	client, err := pubsub.Dial(addrs...)
	if err != nil {
		return err
	}
	defer client.Close()
	ids, err := client.Match(core.Canonical(events))
	if err != nil {
		return err
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fmt.Printf("%d complex events matched: %v\n", len(ids), ids)
	return nil
}

func runBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	blocks := fs.String("blocks", "", "comma-separated block addresses")
	p := fs.Int("p", 20, "events per document")
	cardA := fs.Int("a", 10000, "atomic event universe")
	n := fs.Int("n", 5000, "documents to match")
	seed := fs.Int64("seed", 2, "document seed")
	fs.Parse(args)
	addrs := parseBlocks(*blocks)
	if len(addrs) == 0 {
		return fmt.Errorf("bench needs -blocks")
	}
	client, err := pubsub.Dial(addrs...)
	if err != nil {
		return err
	}
	defer client.Close()
	rng := rand.New(rand.NewSource(*seed))
	docs := make([]core.EventSet, 256)
	for i := range docs {
		events := make([]core.Event, *p)
		for j := range events {
			events[j] = core.Event(rng.Intn(*cardA))
		}
		docs[i] = core.Canonical(events)
	}
	matches := 0
	start := time.Now()
	for i := 0; i < *n; i++ {
		ids, err := client.Match(docs[i%len(docs)])
		if err != nil {
			return err
		}
		matches += len(ids)
	}
	elapsed := time.Since(start)
	fmt.Printf("%d documents over %d blocks in %v: %.0f docs/s, %d matches\n",
		*n, len(addrs), elapsed.Round(time.Millisecond),
		float64(*n)/elapsed.Seconds(), matches)
	return nil
}
