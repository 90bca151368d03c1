package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"xymon/internal/faults"
	"xymon/internal/wal"
)

// Coord is the cluster coordinator: the single writer of the versioned
// partition map. It admits block joins and leaves, computes
// minimal-movement map transitions, and migrates subscription partitions
// between blocks through a WAL-backed transfer journal — every handoff
// step is journaled before it takes effect, so a coordinator crash
// mid-transfer resumes from the journal instead of losing or duplicating
// subscriptions.
//
// A transition from stable map v runs in two phases:
//
//  1. Install the transition map v+1, identical to v but listing every
//     copy destination in Joining. From this instant clients double-write
//     subscription mutations to old replicas and new destinations alike,
//     so the copy below can never miss a concurrent write (no match
//     window is uncovered).
//  2. Copy each moving partition from a surviving replica to its
//     destination (journaling the dump and each completed move), then
//     commit: install the final map v+2 that promotes the destinations
//     into Assign and retire the copies the old map no longer needs.
//
// Reads never route to a Joining destination, so a half-copied partition
// is never served; with R ≥ 2 a single block failure during all of this
// still leaves a full replica of every partition to read from.
type Coord struct {
	cfg      clientConfig
	replicas int
	log      *wal.Log

	// opMu serialises transitions end-to-end; mu guards the snapshots
	// below with short critical sections so map fetches ('?') answer
	// instantly even while a transfer is running.
	opMu sync.Mutex
	mu   sync.Mutex
	curr Map // map served to clients (the transition map mid-transfer)
	// stable is the last committed map; members the admitted block set.
	stable  Map
	members map[string]bool

	ln      net.Listener
	wg      sync.WaitGroup
	closing chan struct{}
	cmu     sync.Mutex
	closed  bool
	conns   map[net.Conn]struct{}
}

// coordRecord is one JSON-lines journal entry of the transfer WAL.
type coordRecord struct {
	Kind string `json:"kind"` // "begin" | "subs" | "moved" | "commit"
	// begin: the full planned transition.
	Trans *Map   `json:"trans,omitempty"`
	Final *Map   `json:"final,omitempty"`
	Moves []Move `json:"moves,omitempty"`
	// subs: partition Part dumped these subscriptions (resume re-applies
	// from here even if every old replica has since died).
	Part int   `json:"part,omitempty"`
	Subs []Sub `json:"subs,omitempty"`
	// moved: partition Part fully copied to To.
	To string `json:"to,omitempty"`
	// commit: the final map's version took effect.
	Version uint64 `json:"version,omitempty"`
}

// coordSnapshot is the checkpoint image: everything outside an in-flight
// transition.
type coordSnapshot struct {
	Stable Map      `json:"stable"`
	Blocks []string `json:"blocks"`
}

// pendingTransfer is a journaled transition reconstructed at recovery.
type pendingTransfer struct {
	trans  Map
	final  Map
	moves  []Move
	done   map[string]bool // "part→to" of completed moves
	dumped map[int][]Sub   // journaled dumps, keyed by partition
}

// NewCoord opens (or recovers) a coordinator whose transfer journal
// lives in walDir. If the journal holds a transition that began but
// never committed — the coordinator crashed mid-handoff — the transfer
// is resumed and committed before NewCoord returns; resumption needs the
// involved blocks reachable, so NewCoord fails if they are not (retry
// once they are).
func NewCoord(walDir string, replicas int, opts ...ClientOption) (*Coord, error) {
	if replicas < 1 {
		replicas = 1
	}
	cfg := newClientConfig(opts)
	var hook wal.Hook
	if cfg.faults != nil {
		in := cfg.faults
		hook = func(op, key string) error { return in.Check(faults.Point(op), key) }
	}
	log, err := wal.Open(walDir, wal.Options{Framing: wal.Lines{}, Hook: hook})
	if err != nil {
		return nil, err
	}
	c := &Coord{
		cfg:      cfg,
		replicas: replicas,
		log:      log,
		members:  make(map[string]bool),
		closing:  make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
	}
	pending, err := c.recover()
	if err != nil {
		_ = log.Close()
		return nil, err
	}
	c.curr = c.stable
	if pending != nil {
		c.curr = pending.trans
		if err := c.runTransfer(pending); err != nil {
			_ = log.Close()
			return nil, fmt.Errorf("cluster: resume journaled transfer: %w", err)
		}
	}
	return c, nil
}

// recover rebuilds stable state and any in-flight transition from the
// checkpoint snapshot and journal records.
func (c *Coord) recover() (*pendingTransfer, error) {
	var pending *pendingTransfer
	err := c.log.Recover(
		func(snapshot []byte) error {
			var snap coordSnapshot
			if err := json.Unmarshal(snapshot, &snap); err != nil {
				return fmt.Errorf("cluster: coordinator checkpoint: %w", err)
			}
			c.stable = snap.Stable
			for _, b := range snap.Blocks {
				c.members[b] = true
			}
			return nil
		},
		func(payload []byte) error {
			var rec coordRecord
			if err := json.Unmarshal(payload, &rec); err != nil {
				return fmt.Errorf("cluster: coordinator journal: %w", err)
			}
			switch rec.Kind {
			case "begin":
				if rec.Trans == nil || rec.Final == nil {
					return errors.New("cluster: coordinator journal: begin without maps")
				}
				pending = &pendingTransfer{
					trans:  *rec.Trans,
					final:  *rec.Final,
					moves:  rec.Moves,
					done:   make(map[string]bool),
					dumped: make(map[int][]Sub),
				}
				c.members = make(map[string]bool)
				for _, b := range rec.Final.Blocks {
					c.members[b] = true
				}
			case "subs":
				if pending != nil {
					pending.dumped[rec.Part] = rec.Subs
				}
			case "moved":
				if pending != nil {
					pending.done[moveKey(rec.Part, rec.To)] = true
				}
			case "commit":
				if pending != nil {
					c.stable = pending.final
					pending = nil
				}
			default:
				return fmt.Errorf("cluster: coordinator journal: unknown record %q", rec.Kind)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return pending, nil
}

// Close stops the listener (if serving) and closes the journal.
func (c *Coord) Close() error {
	c.cmu.Lock()
	already := c.closed
	c.closed = true
	var ln net.Listener
	if !already {
		close(c.closing)
		ln = c.ln
		for conn := range c.conns {
			_ = conn.Close()
		}
		c.conns = map[net.Conn]struct{}{}
	}
	c.cmu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	c.wg.Wait()
	if already {
		return nil
	}
	return c.log.Close()
}

// Map snapshots the map currently served to clients (the transition map
// while a transfer is running).
func (c *Coord) Map() Map {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.curr.Clone()
}

// Blocks lists the admitted block addresses, sorted.
func (c *Coord) Blocks() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.members))
	for b := range c.members {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// Join admits a block and rebalances onto it. The block must already be
// serving — partitions are copied to it before the new map commits.
func (c *Coord) Join(addr string) error { return c.reshape(addr, true) }

// Leave retires a block gracefully: its partitions are copied off it
// (the leaving block is a preferred copy source) before the map that
// excludes it commits, after which it can shut down with nothing lost.
func (c *Coord) Leave(addr string) error { return c.reshape(addr, false) }

// Evict removes a dead block from the cluster: like Leave, but the
// transfer never contacts addr — every copy reads from a surviving
// replica. This is the R ≥ 2 recovery path after a block failure.
func (c *Coord) Evict(addr string) error { return c.reshape(addr, false) }

// reshape runs one membership change as a journaled two-phase transition.
func (c *Coord) reshape(addr string, add bool) error {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	c.mu.Lock()
	if c.members[addr] == add {
		c.mu.Unlock()
		return nil // no-op: already a member / already gone
	}
	old := c.stable
	members := make([]string, 0, len(c.members)+1)
	for b := range c.members {
		if b != addr {
			members = append(members, b)
		}
	}
	if add {
		members = append(members, addr)
	}
	c.mu.Unlock()

	final := BuildMap(old.Version+2, c.replicas, members)
	moves := movesBetween(old, final)
	trans := old.Clone()
	trans.Version = old.Version + 1
	trans.Replicas = c.replicas
	trans.Blocks = append([]string(nil), final.Blocks...)
	if len(trans.Assign) != NumPartitions {
		// Bootstrap: no stable map yet; nothing is assigned, so nothing
		// moves — the transition only exists to version the handoff.
		trans.Assign = make([][]string, NumPartitions)
	}
	trans.Joining = make(map[int][]string)
	for _, mv := range moves {
		trans.Joining[mv.Part] = append(trans.Joining[mv.Part], mv.To)
	}

	p := &pendingTransfer{
		trans:  trans,
		final:  final,
		moves:  moves,
		done:   make(map[string]bool),
		dumped: make(map[int][]Sub),
	}
	if err := c.append(coordRecord{Kind: "begin", Trans: &trans, Final: &final, Moves: moves}); err != nil {
		return err
	}
	c.mu.Lock()
	c.members = make(map[string]bool, len(members))
	for _, b := range members {
		c.members[b] = true
	}
	c.curr = trans
	c.mu.Unlock()
	return c.runTransfer(p)
}

// runTransfer executes (or resumes) a journaled transition: install the
// transition map, copy every pending move, commit the final map, then
// checkpoint the journal down to the new stable state.
func (c *Coord) runTransfer(p *pendingTransfer) error {
	// Phase 1: every member serves under the transition map, so
	// double-writes to Joining destinations start before any copy.
	for _, b := range p.trans.Blocks {
		if err := c.install(b, p.trans); err != nil {
			return err
		}
	}
	// Phase 2: copy. Dumps happen after the transition map is live on the
	// source, so the snapshot plus the double-write stream covers every
	// subscription.
	for _, mv := range p.moves {
		key := moveKey(mv.Part, mv.To)
		if p.done[key] {
			continue
		}
		if err := c.faultCheck(faults.PointXfer, key); err != nil {
			return err
		}
		subs, journaled := p.dumped[mv.Part]
		if !journaled && mv.From != "" {
			var err error
			if subs, err = c.dumpPart(p, mv.Part, mv.From); err != nil {
				return err
			}
			if err := c.append(coordRecord{Kind: "subs", Part: mv.Part, Subs: subs}); err != nil {
				return err
			}
			p.dumped[mv.Part] = subs
		}
		for _, sub := range subs {
			payload := encodeSubOp(p.trans.Version, uint32(sub.ID), sub.Events)
			kind, _, err := c.rpc(mv.To, kindAdd, payload)
			if err != nil {
				return fmt.Errorf("cluster: copy partition %d to %s: %w", mv.Part, mv.To, err)
			}
			if kind != kindAck {
				return fmt.Errorf("%w: %s answered %q to a transfer add", ErrProtocol, mv.To, kind)
			}
		}
		if err := c.append(coordRecord{Kind: "moved", Part: mv.Part, To: mv.To}); err != nil {
			return err
		}
		p.done[key] = true
	}
	// Commit: journal first, then promote. A crash after this record
	// replays into the committed state.
	if err := c.append(coordRecord{Kind: "commit", Version: p.final.Version}); err != nil {
		return err
	}
	for _, b := range p.final.Blocks {
		if err := c.install(b, p.final); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.stable = p.final
	c.curr = p.final
	c.mu.Unlock()
	c.dropRetired(p)
	return c.checkpoint()
}

// dumpPart fetches partition part's subscriptions from a surviving
// replica, preferring from, then the other old owners in order.
func (c *Coord) dumpPart(p *pendingTransfer, part int, from string) ([]Sub, error) {
	sources := []string{from}
	if part < len(c.stableAssign()) {
		for _, a := range c.stableAssign()[part] {
			if a != from {
				sources = append(sources, a)
			}
		}
	}
	var lastErr error
	for _, src := range sources {
		kind, body, err := c.rpc(src, kindDump, encodeU32(uint32(part)))
		if err != nil {
			lastErr = err
			continue
		}
		if kind != kindDumped {
			lastErr = fmt.Errorf("%w: %s answered %q to a dump", ErrProtocol, src, kind)
			continue
		}
		return decodeSubs(body)
	}
	return nil, fmt.Errorf("cluster: no surviving replica of partition %d: %w", part, lastErr)
}

func (c *Coord) stableAssign() [][]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stable.Assign
}

// dropRetired tells blocks that lost a partition in the committed map to
// discard it. Best-effort garbage collection: a missed drop wastes
// memory, never correctness — reads only route to assigned replicas.
func (c *Coord) dropRetired(p *pendingTransfer) {
	retired := make(map[string][]int)
	for part := 0; part < NumPartitions; part++ {
		var oldOwners []string
		if part < len(p.trans.Assign) {
			oldOwners = p.trans.Assign[part]
		}
		for _, a := range oldOwners {
			if !containsAddr(p.final.Assign[part], a) && c.isMember(a) {
				retired[a] = append(retired[a], part)
			}
		}
	}
	for addr, parts := range retired {
		for _, part := range parts {
			_, _, _ = c.rpc(addr, kindDrop, encodeU32(uint32(part)))
		}
	}
}

func (c *Coord) isMember(addr string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.members[addr]
}

// checkpoint compacts the journal to the committed stable state.
func (c *Coord) checkpoint() error {
	c.mu.Lock()
	snap := coordSnapshot{Stable: c.stable.Clone()}
	for b := range c.members {
		snap.Blocks = append(snap.Blocks, b)
	}
	c.mu.Unlock()
	sort.Strings(snap.Blocks)
	raw, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	return c.log.Checkpoint(func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	})
}

// append journals one record (Lines framing: one JSON object per line).
func (c *Coord) append(rec coordRecord) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return c.log.Append(raw)
}

// install pushes a map to one block and requires the ack.
func (c *Coord) install(addr string, m Map) error {
	kind, _, err := c.rpc(addr, kindInstall, m.Encode())
	if err != nil {
		return fmt.Errorf("cluster: install map v%d on %s: %w", m.Version, addr, err)
	}
	if kind != kindAck {
		return fmt.Errorf("%w: %s answered %q to a map install", ErrProtocol, addr, kind)
	}
	return nil
}

// faultCheck consults the coordinator's injector at a transfer point.
func (c *Coord) faultCheck(point faults.Point, key string) error {
	if c.cfg.faults == nil {
		return nil
	}
	return c.cfg.faults.Check(point, key)
}

// rpc runs one request/response round trip against a block over a fresh
// connection, with deadline-bounded I/O and bounded retries. The
// coordinator talks to each block rarely (installs, dumps, copies), so
// per-call dials keep it free of connection-state bookkeeping.
func (c *Coord) rpc(addr string, kind byte, payload []byte) (byte, []byte, error) {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.retries; attempt++ {
		rkind, body, err := c.rpcOnce(addr, kind, payload)
		if err == nil {
			return rkind, body, nil
		}
		lastErr = err
		var remote *RemoteError
		if errors.As(err, &remote) {
			break // the block answered; resending changes nothing
		}
	}
	return 0, nil, lastErr
}

func (c *Coord) rpcOnce(addr string, kind byte, payload []byte) (byte, []byte, error) {
	conn, err := c.cfg.dialer(addr)
	if err != nil {
		return 0, nil, err
	}
	defer conn.Close()
	if c.cfg.ioTimeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(c.cfg.ioTimeout)); err != nil {
			return 0, nil, err
		}
	}
	w := bufio.NewWriter(conn)
	if err := writeBlob(w, kind, payload); err != nil {
		return 0, nil, err
	}
	if err := w.Flush(); err != nil {
		return 0, nil, err
	}
	return readBlob(bufio.NewReader(conn), nil)
}

// ServeCoord starts the coordinator's control listener on addr. Blocks
// and clients speak blob frames to it: '?' fetches the current map,
// 'J'/'L'/'V' are join/leave/evict requests carrying the subject block's
// address. Returns once the listener is bound; Close stops it.
func (c *Coord) ServeCoord(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	c.cmu.Lock()
	if c.closed {
		c.cmu.Unlock()
		_ = ln.Close()
		return errors.New("cluster: coordinator is closed")
	}
	c.ln = ln
	c.cmu.Unlock()
	c.wg.Add(1)
	go c.acceptLoop(ln)
	return nil
}

// Addr returns the bound listener address ("" before ServeCoord).
func (c *Coord) Addr() string {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// acceptLoop mirrors Server.acceptLoop: capped exponential backoff on
// transient accept errors, clean exit once Close fires.
func (c *Coord) acceptLoop(ln net.Listener) {
	defer c.wg.Done()
	backoff := time.Millisecond
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-c.closing:
				return
			default:
			}
			select {
			case <-c.closing:
				return
			case <-time.After(backoff):
			}
			if backoff < time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = time.Millisecond
		if err := c.faultCheck(faults.PointAccept, conn.RemoteAddr().String()); err != nil {
			_ = conn.Close()
			continue
		}
		c.cmu.Lock()
		if c.closed {
			c.cmu.Unlock()
			_ = conn.Close()
			return
		}
		c.conns[conn] = struct{}{}
		c.cmu.Unlock()
		c.wg.Add(1)
		go c.handle(conn)
	}
}

func (c *Coord) handle(conn net.Conn) {
	defer c.wg.Done()
	defer func() {
		c.cmu.Lock()
		delete(c.conns, conn)
		c.cmu.Unlock()
		_ = conn.Close()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		if err := conn.SetDeadline(time.Now().Add(DefaultReadIdle)); err != nil {
			return
		}
		if err := c.faultCheck(faults.PointServeRead, conn.RemoteAddr().String()); err != nil {
			return
		}
		kind, body, err := readBlob(r, nil)
		if err != nil {
			var remote *RemoteError
			if !errors.As(err, &remote) {
				return
			}
			continue
		}
		if err := c.dispatch(kind, body, w); err != nil {
			_ = writeError(w, err)
		}
		if w.Flush() != nil {
			return
		}
	}
}

func (c *Coord) dispatch(kind byte, body []byte, w *bufio.Writer) error {
	if err := c.faultCheck(faults.PointServeWrite, string(kind)); err != nil {
		return err
	}
	switch kind {
	case kindMapReq:
		m := c.Map()
		if m.Version == 0 {
			return fmt.Errorf("%w: no blocks have joined yet", ErrProtocol)
		}
		return writeBlob(w, kindMapResp, m.Encode())
	case kindJoin:
		if err := c.Join(string(body)); err != nil {
			return err
		}
		return writeBlob(w, kindAck, nil)
	case kindLeave:
		if err := c.Leave(string(body)); err != nil {
			return err
		}
		return writeBlob(w, kindAck, nil)
	case kindEvict:
		if err := c.Evict(string(body)); err != nil {
			return err
		}
		return writeBlob(w, kindAck, nil)
	default:
		return fmt.Errorf("%w: unknown coordinator frame kind %q", ErrProtocol, kind)
	}
}

func moveKey(part int, to string) string {
	return fmt.Sprintf("%d→%s", part, to)
}

// JoinCluster announces addr to the coordinator at coordAddr: the block
// glue a dynamic server calls after binding its listener. opts supply
// dial/fault configuration.
func JoinCluster(coordAddr, addr string, opts ...ClientOption) error {
	return coordRequest(coordAddr, kindJoin, addr, opts)
}

// LeaveCluster announces a graceful departure to the coordinator; it
// returns once the cluster has rebalanced off addr.
func LeaveCluster(coordAddr, addr string, opts ...ClientOption) error {
	return coordRequest(coordAddr, kindLeave, addr, opts)
}

// EvictFromCluster reports addr as dead to the coordinator.
func EvictFromCluster(coordAddr, addr string, opts ...ClientOption) error {
	return coordRequest(coordAddr, kindEvict, addr, opts)
}

func coordRequest(coordAddr string, kind byte, addr string, opts []ClientOption) error {
	c := &Coord{cfg: newClientConfig(opts)}
	rkind, _, err := c.rpc(coordAddr, kind, []byte(addr))
	if err != nil {
		return err
	}
	if rkind != kindAck {
		return fmt.Errorf("%w: coordinator answered %q", ErrProtocol, rkind)
	}
	return nil
}
