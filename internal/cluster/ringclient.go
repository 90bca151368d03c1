package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"xymon/internal/core"
)

// ErrNoMap reports a ring client without an installed partition map.
var ErrNoMap = errors.New("cluster: no partition map")

var errRingClosed = errors.New("cluster: ring client is closed")

// maxMapRefreshes bounds how many stale-map → refetch rounds one request
// rides before giving up: a coordinator installing maps faster than a
// client can refetch them is a bug, not a condition to chase forever.
const maxMapRefreshes = 3

// RingClient is the partition-map client. It routes every request by
// the current map: a match goes to the fewest blocks whose hosted
// partitions cover the document's — one block, on the caller's goroutine,
// whenever some block hosts them all, which is always so at R = N — with
// replicas taking turns, and fails over to the remaining replicas before
// ever reporting degradation; Add/Remove are written to every replica
// plus any joining destination (the client half of the double-write
// invariant). A block that rejects a request as stale serves its own
// map, which the client fetches and re-plans by, so a client converges
// on the coordinator's maps without a push channel or a coordinator
// address.
type RingClient struct {
	cfg clientConfig

	// rt is the adopted map with its routing tables; nil while there is
	// none (or after Close). Readers load it; writers hold mu.
	rt   atomic.Pointer[routes]
	turn atomic.Uint32 // rotates which replica a match prefers

	mu    sync.Mutex
	conns map[string]*blockConn // nil once closed

	st netStats
}

// routes is the routing snapshot of one adopted map, built once per
// adoption so that the match path reads it through one atomic pointer
// and never takes the client's mutex.
type routes struct {
	m     Map
	conns []*blockConn // the blocks that read-serve some partition
	masks []uint64     // masks[i] has bit p set when conns[i] hosts partition p
}

// leg is one block's share of a match: the partitions asked of it and
// what came back.
type leg struct {
	block int    // index into routes.conns
	parts uint64 // partitions asked of the block
	ids   []core.ComplexID
	stale bool
	err   error
}

// cover is the planner. It appends to legs the fewest blocks whose masks
// cover need, greedily (the block hosting most of what is still uncovered
// goes first, ties to the first such block at or after start), skipping
// the blocks a leg already in legs failed on, and returns the partitions
// left without a block. A block that hosts all of need is always the whole plan.
func (rt *routes) cover(legs []leg, need uint64, start uint32) ([]leg, uint64) {
	for need != 0 {
		best, bestN := -1, 0
		for k := range rt.masks {
			i := int((start + uint32(k)) % uint32(len(rt.masks)))
			n := bits.OnesCount64(rt.masks[i] & need)
			for j := range legs {
				if legs[j].block == i && legs[j].err != nil {
					n = 0
				}
			}
			if n > bestN {
				best, bestN = i, n
			}
		}
		if best < 0 {
			break
		}
		legs = append(legs, leg{block: best, parts: rt.masks[best] & need})
		need &^= rt.masks[best]
	}
	return legs, need
}

// NewRingClientWithMap returns a client routing by m until a block turns
// it away as stale; then it adopts the block's map. Any map that names
// live blocks will do: a block with no installed map serves every
// partition it holds, and a coordinated one hands the client the
// cluster's current map.
func NewRingClientWithMap(m Map, opts ...ClientOption) *RingClient {
	c := &RingClient{
		cfg:   newClientConfig(opts),
		conns: make(map[string]*blockConn),
	}
	c.adopt(m.Clone())
	return c
}

// Close closes every block connection.
func (c *RingClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, bc := range c.conns {
		if err := bc.close(); err != nil && first == nil {
			first = err
		}
	}
	c.conns = nil
	c.rt.Store(nil)
	return first
}

// Map snapshots the client's current partition map.
func (c *RingClient) Map() Map {
	if rt := c.rt.Load(); rt != nil {
		return rt.m.Clone()
	}
	return Map{}
}

// Stats snapshots the robustness counters.
func (c *RingClient) Stats() ClientStats { return c.st.snapshot() }

// refresh fetches the installed map of each block in addrs in turn and
// adopts it, until the client routes by a map newer than ver. It fails
// when no block had one, and stops at a block that answers in words or
// with version 0: a block with no map is not coordinated, and neither are
// the others.
func (c *RingClient) refresh(ver uint64, addrs []string) error {
	err := fmt.Errorf("%w: blocks reject map version %d as stale", ErrProtocol, ver)
	for _, addr := range addrs {
		kind, body, rerr := c.request(addr, kindMapReq, nil)
		if rerr == nil && kind != kindMapResp {
			rerr = fmt.Errorf("%w: block %s answered %q to a map fetch", ErrProtocol, addr, kind)
		}
		var m Map
		if rerr == nil {
			m, rerr = DecodeMap(body)
		}
		if rerr == nil && m.Version == 0 {
			return fmt.Errorf("%w installed on block %s", ErrNoMap, addr)
		}
		var remote *RemoteError
		if errors.As(rerr, &remote) {
			return rerr
		}
		if rerr != nil {
			err = rerr
			continue
		}
		c.adopt(m)
		if rt := c.rt.Load(); rt != nil && rt.m.Version > ver {
			c.st.mapRefreshes.Add(1)
			return nil
		}
	}
	return err
}

// adopt installs m, with its routing tables, if it is a routable map at
// least as new as the current one.
func (c *RingClient) adopt(m Map) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.rt.Load()
	if c.conns == nil || m.Version == 0 || len(m.Assign) != NumPartitions || (cur != nil && m.Version < cur.m.Version) {
		return
	}
	rt := &routes{m: m}
	index := make(map[string]int)
	for p, owners := range m.Assign {
		for _, addr := range owners {
			i, ok := index[addr]
			if !ok {
				i = len(rt.conns)
				index[addr] = i
				rt.conns = append(rt.conns, c.connLocked(addr))
				rt.masks = append(rt.masks, 0)
			}
			rt.masks[i] |= 1 << p
		}
	}
	c.rt.Store(rt)
}

// routed returns the current routing snapshot, or why there is none.
func (c *RingClient) routed() (*routes, error) {
	if rt := c.rt.Load(); rt != nil {
		return rt, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conns == nil {
		return nil, errRingClosed
	}
	return nil, ErrNoMap
}

// conn returns (creating on first use) the shared connection state for
// one block address. Dialing is lazy — blockConn.call dials on demand.
func (c *RingClient) conn(addr string) (*blockConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conns == nil {
		return nil, errRingClosed
	}
	return c.connLocked(addr), nil
}

func (c *RingClient) connLocked(addr string) *blockConn {
	bc, ok := c.conns[addr]
	if !ok {
		bc = &blockConn{addr: addr}
		c.conns[addr] = bc
	}
	return bc
}

// request runs one request/response round trip against addr through
// the shared robustness envelope (reconnect, deadlines, bounded retries,
// down-cooldown).
func (c *RingClient) request(addr string, kind byte, payload []byte) (byte, []byte, error) {
	bc, err := c.conn(addr)
	if err != nil {
		return 0, nil, err
	}
	return bc.request(&c.cfg, &c.st, kind, payload)
}

// neededPartitions returns the mask of partitions a match for s must
// consult: the partitions of the document's own events. Any subscription
// triggered by s has its minimal event in s, so its partition is among
// these.
func neededPartitions(s core.EventSet) uint64 {
	var need uint64
	for _, e := range s {
		need |= 1 << PartitionOfEvent(e)
	}
	return need
}

// Match is MatchResult without the degradation report.
func (c *RingClient) Match(s core.EventSet) ([]core.ComplexID, error) {
	res, err := c.MatchResult(s)
	return res.IDs, err
}

// MatchResult matches the canonical event set against the cluster: one
// round trip to one block when some block hosts every needed partition,
// else to the fewest blocks that cover them between them. A block failure
// re-routes its partitions to the replicas that remain (counted in
// Stats().Failovers) — Degraded is set only when a partition runs out of
// replicas entirely. A stale-map rejection refetches the map from the
// block that sent it and re-plans, bounded by maxMapRefreshes.
func (c *RingClient) MatchResult(s core.EventSet) (Result, error) {
	need := neededPartitions(s)
	if need == 0 {
		return Result{}, nil
	}
	for refresh := 0; ; refresh++ {
		rt, err := c.routed()
		if err != nil {
			return Result{}, err
		}
		res, staleAt, err := c.matchOnce(rt, need, s)
		if err != nil {
			return Result{}, err
		}
		if staleAt == "" {
			if res.Degraded {
				c.st.degraded.Add(1)
			}
			return res, nil
		}
		if refresh >= maxMapRefreshes {
			return Result{}, fmt.Errorf("%w: blocks reject map version %d as stale", ErrProtocol, rt.m.Version)
		}
		if err := c.refresh(rt.m.Version, []string{staleAt}); err != nil {
			return Result{}, err
		}
	}
}

// matchOnce runs one match under a fixed routing snapshot: cover the
// needed partitions, ask the planned blocks, re-cover what the failed
// ones were asked for with the blocks that remain, and repeat until every
// partition is answered or out of replicas. Partition sets sent to
// distinct blocks are disjoint, so the merged ids carry no duplicates.
// staleAt names a block that turned the match away as stale.
func (c *RingClient) matchOnce(rt *routes, need uint64, s core.EventSet) (Result, string, error) {
	start := c.turn.Add(1)
	var buf [4]leg // a plan is one leg nearly always; keeps it off the heap
	legs, orphans := rt.cover(buf[:0], need, start)
	var res Result
	var firstErr error
	answered := false
	for done := 0; done < len(legs); {
		round := legs[done:]
		done = len(legs)
		c.ask(rt, round, s)
		var lost uint64
		for i := range round {
			l := &round[i]
			switch {
			case l.stale:
				return Result{}, rt.conns[l.block].addr, nil
			case l.err != nil:
				var remote *RemoteError
				if errors.As(l.err, &remote) {
					// The block understood and rejected the request;
					// another replica will reject it identically.
					return Result{}, "", l.err
				}
				if firstErr == nil {
					firstErr = l.err
				}
				lost |= l.parts
				if addr := rt.conns[l.block].addr; !containsAddr(res.Down, addr) {
					res.Down = append(res.Down, addr)
				}
			case res.IDs == nil:
				answered, res.IDs = true, l.ids
			default:
				answered, res.IDs = true, append(res.IDs, l.ids...)
			}
		}
		if lost != 0 {
			var left uint64
			legs, left = rt.cover(legs, lost, start)
			c.st.failovers.Add(uint64(bits.OnesCount64(lost &^ left)))
			orphans |= left
		}
	}
	if orphans != 0 {
		if !answered {
			// Nothing answered at all: an error, not a degraded result —
			// there is nothing to degrade to.
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: no replica hosts the needed partitions", ErrNoMap)
			}
			return Result{}, "", firstErr
		}
		res.Degraded = true
	}
	return res, "", nil
}

// ask puts one round of legs to their blocks and waits for the answers:
// a single leg on the caller's goroutine, k legs on k − 1 more.
func (c *RingClient) ask(rt *routes, round []leg, s core.EventSet) {
	if len(round) == 1 {
		c.askBlock(rt, &round[0], s)
		return
	}
	// The goroutines work on a copy: pointers into round would move the
	// single-leg caller's stack array to the heap on every match.
	legs := append([]leg(nil), round...)
	fanOut(len(legs), func(i int) { c.askBlock(rt, &legs[i], s) })
	copy(round, legs)
}

// fanOut runs f(0) on the caller's goroutine and f(1) … f(n-1) each on
// its own, and returns when all have; n is at least 1.
func fanOut(n int, f func(i int)) {
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	f(0)
	wg.Wait()
}

// askBlock runs one leg: the request is encoded straight into the block
// connection's writer and the ids decoded straight into the leg.
func (c *RingClient) askBlock(rt *routes, l *leg, s core.EventSet) {
	bc := rt.conns[l.block]
	l.err = bc.call(&c.cfg, &c.st,
		func(w *bufio.Writer) error { return writeMatch(w, rt.m.Version, l.parts, s) },
		func(r *bufio.Reader) (err error) {
			l.ids, l.stale, err = readMatchReply(r, &bc.buf, l.ids[:0])
			return err
		})
}

// Add registers (or replaces) subscription id on every block that must
// observe it: the assigned replicas of its partition plus any joining
// destination mid-handoff. Add returns nil only when every target acked;
// on error the write may be partial and the caller must retry (the
// operation is idempotent) or treat the add as failed.
func (c *RingClient) Add(id core.ComplexID, events []core.Event) error {
	set := core.Canonical(events)
	if len(set) == 0 {
		return core.ErrEmptyComplexEvent
	}
	return c.writeAll(PartitionOf(set), func(ver uint64) (byte, []byte) {
		return kindAdd, encodeSubOp(ver, uint32(id), set)
	})
}

// Remove drops subscription id from every block that could host it. The
// events are the ones id was added with: they route the write to the
// partition's blocks. A block acks an id it does not hold, so removing an
// unknown id returns nil, where core.Matcher.Remove returns
// ErrUnknownComplexID.
func (c *RingClient) Remove(id core.ComplexID, events []core.Event) error {
	set := core.Canonical(events)
	if len(set) == 0 {
		return core.ErrEmptyComplexEvent
	}
	p := PartitionOf(set)
	return c.writeAll(p, func(ver uint64) (byte, []byte) {
		return kindRemove, encodeSubOp(ver, uint32(id), nil)
	})
}

// writeAll sends one write to every write target of partition p and
// requires an ack from each. A stale-map rejection refetches the map from
// the block that sent it, and an unreachable target from the map's other
// blocks; either retries the whole write under the newer map — re-sending
// to a block that already applied it is safe because '+' replaces and '-'
// is a no-op on absence.
func (c *RingClient) writeAll(p int, frame func(ver uint64) (byte, []byte)) error {
	for refresh := 0; ; refresh++ {
		rt, err := c.routed()
		if err != nil {
			return err
		}
		m := rt.m
		targets := m.WriteTargets(p)
		if len(targets) == 0 {
			return fmt.Errorf("%w: partition %d has no write targets", ErrNoMap, p)
		}
		kind, payload := frame(m.Version)
		retry := false
		for _, addr := range targets {
			rkind, _, err := c.request(addr, kind, payload)
			if err != nil {
				// The target may simply no longer be a member: an
				// unreachable write target under an old map looks exactly
				// like this after it left. If another block has a newer
				// map, re-plan against it before giving up.
				var remote *RemoteError
				if !errors.As(err, &remote) && refresh < maxMapRefreshes && c.refresh(m.Version, otherBlocks(m, addr)) == nil {
					retry = true
					break
				}
				return fmt.Errorf("cluster: write to %s: %w", addr, err)
			}
			if rkind == kindStale {
				if refresh >= maxMapRefreshes {
					return fmt.Errorf("%w: blocks reject map version %d as stale", ErrProtocol, m.Version)
				}
				if err := c.refresh(m.Version, []string{addr}); err != nil {
					return err
				}
				retry = true
				break
			}
			if rkind != kindAck {
				return fmt.Errorf("%w: block %s answered %q to a write", ErrProtocol, addr, rkind)
			}
		}
		if !retry {
			return nil
		}
	}
}

// otherBlocks lists m's blocks but addr.
func otherBlocks(m Map, addr string) []string {
	out := make([]string, 0, len(m.Blocks))
	for _, b := range m.Blocks {
		if b != addr {
			out = append(out, b)
		}
	}
	return out
}

// Probe attempts to reconnect every down block immediately, ignoring
// cooldown windows — the explicit health probe for operators and tests —
// and returns how many of the map's blocks are up.
func (c *RingClient) Probe() int {
	up := 0
	for _, bc := range c.blockConns() {
		bc.mu.Lock()
		if bc.conn == nil && !bc.closed {
			// The dialer is a config-owned leaf (net.DialTimeout or a test
			// wrapper); it never calls back into the client, and holding
			// bc.mu serialises the probe with in-flight matches.
			//xyvet:ignore lockcheck
			if conn, err := c.cfg.dialer(bc.addr); err == nil {
				bc.attachLocked(conn, &c.st)
				bc.downFails = 0
				bc.downUntil = time.Time{}
			}
		}
		if bc.conn != nil {
			up++
		}
		bc.mu.Unlock()
	}
	return up
}

// Health snapshots the liveness of every block in the current map.
func (c *RingClient) Health() []BlockHealth {
	conns := c.blockConns()
	out := make([]BlockHealth, 0, len(conns))
	for _, bc := range conns {
		bc.mu.Lock()
		out = append(out, BlockHealth{
			Addr: bc.addr, Up: bc.conn != nil,
			Fails: bc.downFails, DownUntil: bc.downUntil,
		})
		bc.mu.Unlock()
	}
	return out
}

// blockConns returns the conn state of every block in the current map,
// creating entries for blocks not yet contacted.
func (c *RingClient) blockConns() []*blockConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	rt := c.rt.Load()
	if rt == nil { // no map, or closed
		return nil
	}
	out := make([]*blockConn, 0, len(rt.m.Blocks))
	for _, addr := range rt.m.Blocks {
		out = append(out, c.connLocked(addr))
	}
	return out
}
