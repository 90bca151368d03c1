package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"xymon/internal/cluster"
	"xymon/internal/core"
	"xymon/internal/webgen"
)

// cluster-match: the Section 4.2 event workload matched through the match
// cluster — dynamic block servers on loopback, a partition map with two
// replicas, one ring client. A "document" is one event set. There is no
// parsing, no warehouse and no reporter here; the wire format, the fan-out
// goroutines and the round trips are the cost, and the in-process matcher
// on the same sets is the yardstick.

type clusterTape struct {
	w   *webgen.EventWorkload
	ref *core.Matcher // in-process matcher over the same complex events
	sha string
}

func genCluster(seed int64, scale int) (tape, error) {
	t := &clusterTape{
		w:   webgen.GenEventWorkload(seed, 100000, max(clusterComplex/scale, 500), 3, 20, max(clusterDocs/scale, 64)),
		ref: core.NewMatcher(),
	}
	if err := t.w.Load(t.ref.Add); err != nil {
		return nil, err
	}
	h := sha256.New()
	put := func(set []core.Event) {
		var b [4]byte
		for _, e := range set {
			binary.LittleEndian.PutUint32(b[:], uint32(e))
			h.Write(b[:])
		}
		h.Write([]byte{0xff})
	}
	for _, set := range t.w.Complex {
		put(set)
	}
	for _, set := range t.w.Docs {
		put(set)
	}
	t.sha = hex.EncodeToString(h.Sum(nil))
	return t, nil
}

func (t *clusterTape) sum() string { return t.sha }

// pageBytes is the size of one event set on the wire: 4 bytes per event.
func (t *clusterTape) pageBytes() float64 { return 4 * float64(t.w.P) }

// countingConn counts what the ring client puts on and takes off the wire.
type countingConn struct {
	net.Conn
	in *clusterInst
}

func (c countingConn) Write(p []byte) (int, error) {
	// The benchmark measures the wire as it is; it injects no faults.
	//xyvet:ignore faultcover
	n, err := c.Conn.Write(p)
	c.in.bytesOut.Add(int64(n))
	c.in.writes.Add(1)
	return n, err
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.bytesIn.Add(int64(n))
	return n, err
}

type clusterInst struct {
	t       *clusterTape
	servers []*cluster.Server
	rc      *cluster.RingClient
	pos     int
	docs    int64

	bytesOut, bytesIn, writes atomic.Int64
	degraded                  int64
	checked                   int64
	// wire counters and document count when the traced phase began
	base struct {
		set                   bool
		out, in, writes, docs int64
	}
}

func (t *clusterTape) open(string) (instance, error) {
	in := &clusterInst{t: t}
	var addrs []string
	for i := 0; i < clusterBlocks; i++ {
		srv, err := cluster.ServeDynamic("127.0.0.1:0", core.NewMatcher())
		if err != nil {
			in.close()
			return nil, err
		}
		in.servers = append(in.servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	m := cluster.BuildMap(1, clusterReplica, addrs)
	in.rc = cluster.NewRingClientWithMap(m, cluster.WithDialer(func(addr string) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: conn, in: in}, nil
	}))
	for id, events := range t.w.Complex {
		if err := in.rc.Add(core.ComplexID(id), events); err != nil {
			in.close()
			return nil, fmt.Errorf("add %d: %w", id, err)
		}
	}
	return in, nil
}

func (in *clusterInst) close() {
	if in.rc != nil {
		_ = in.rc.Close() // connections only; nothing to flush
	}
	for _, s := range in.servers {
		_ = s.Close()
	}
}

func (in *clusterInst) clients() int               { return 1 }
func (in *clusterInst) warmup() int                { return len(in.t.w.Docs) }
func (in *clusterInst) atBoundary(int) bool        { return true }
func (in *clusterInst) aux(<-chan struct{}) func() { return nil }
func (in *clusterInst) side(*report)               {}

func (in *clusterInst) step(_ int, cl *client) bool {
	set := in.t.w.Docs[in.pos]
	in.pos = (in.pos + 1) % len(in.t.w.Docs)
	if cl.tr != nil && !in.base.set {
		in.base.set = true
		in.base.out, in.base.in, in.base.writes, in.base.docs = in.bytesOut.Load(), in.bytesIn.Load(), in.writes.Load(), in.docs
	}
	cl.start()
	res, err := in.rc.MatchResult(set)
	cl.stop()
	in.docs++
	if cl.tr != nil {
		t0 := cl.t0
		root := cl.tr.open("doc", t0)
		cl.tr.child("cluster.rtt_us", root, t0, cl.end)
		cl.tr.close(root, t0, cl.end, cl.end-t0)
		s0 := now()
		in.t.ref.Match(set)
		s1 := now()
		cl.tr.shadow("cluster.server_match_us", s0, s1)
	}
	if err != nil || res.Degraded {
		in.degraded++
		return false
	}
	// one result in a hundred is checked against the in-process matcher
	if in.docs%100 != 0 {
		return true
	}
	in.checked++
	return sameIDs(res.IDs, in.t.ref.Match(set))
}

func sameIDs(a, b []core.ComplexID) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = append([]core.ComplexID(nil), a...), append([]core.ComplexID(nil), b...)
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (in *clusterInst) layers(traced []*client, out *report) {
	sums, rootNs, selfNs := mergeTracers(traced)
	out.set("cluster.rtt_us", sums.mean("cluster.rtt_us"))
	out.set("cluster.server_match_us", sums.mean("cluster.server_match_us"))
	if rootNs > 0 {
		out.set("trace.unattributed_pct", 100*float64(selfNs)/float64(rootNs))
	}
	out.set("cluster.degraded", float64(in.degraded))
	if docs := float64(in.docs - in.base.docs); in.base.set && docs > 0 {
		out.set("cluster.bytes_out_per_doc", float64(in.bytesOut.Load()-in.base.out)/docs)
		out.set("cluster.bytes_in_per_doc", float64(in.bytesIn.Load()-in.base.in)/docs)
		out.set("cluster.writes_per_doc", float64(in.writes.Load()-in.base.writes)/docs)
	}
}

func (in *clusterInst) finish(out *report) {
	hosted := 0
	for _, s := range in.servers {
		hosted += s.Len()
	}
	if want := clusterReplica * len(in.t.w.Complex); hosted != want {
		out.fail("blocks host %d subscription copies, %d loaded × %d replicas", hosted, len(in.t.w.Complex), clusterReplica)
	}
	if in.checked == 0 {
		out.fail("no result was checked against the in-process matcher")
	}
}
