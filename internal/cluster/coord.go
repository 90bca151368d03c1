package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"xymon/internal/faults"
	"xymon/internal/wal"
)

// Coord is the cluster coordinator: the single writer of the versioned
// partition map. It admits block joins and leaves, computes
// minimal-movement map transitions, and migrates subscription partitions
// between blocks through a WAL-backed transfer journal — every handoff
// step is journaled before it takes effect, so a coordinator crash
// mid-transfer resumes from the journal instead of losing or duplicating
// subscriptions. A committed transition checkpoints the journal down to
// one stable record of the committed map, replayed like the others.
//
// A transition from stable map v runs in two phases (numbered v+1 and
// v+2 unless a failed transfer issued those numbers first):
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
// still leaves a full replica of every partition to read from. The
// blocks are the only map server: a client learns each map from a block
// that turns its requests away as stale.
type Coord struct {
	cfg      clientConfig
	replicas int
	log      *wal.Log

	// opMu serialises transitions end-to-end and guards stable, the last
	// committed map (its Blocks are the members), and ver, the newest map
	// version issued: a transfer that failed may have left its transition
	// map on blocks, so the next transition numbers its maps above it.
	opMu   sync.Mutex
	stable Map
	ver    uint64

	// cmu guards the control listener (nil until ServeCoord) and the
	// connection to each block (the map is nil once closed).
	cmu   sync.Mutex
	srv   *listener
	conns map[string]*blockConn
	st    netStats
}

// coordRecord is one JSON journal entry of the transfer WAL.
type coordRecord struct {
	Kind string `json:"kind"` // "begin" | "subs" | "moved" | "commit" | "stable"
	// begin: the full planned transition; stable (a checkpoint's one
	// record): Final is the committed map.
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
	log, err := wal.Open(walDir, wal.Options{Hook: hook})
	if err != nil {
		return nil, err
	}
	c := &Coord{
		cfg:      cfg,
		replicas: replicas,
		log:      log,
		conns:    make(map[string]*blockConn),
	}
	pending, err := c.recover()
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	c.ver = c.stable.Version
	if pending != nil {
		c.ver = pending.final.Version
		if err := c.runTransfer(pending); err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("cluster: resume journaled transfer: %w", err)
		}
	}
	return c, nil
}

// recover rebuilds stable state and any in-flight transition from the
// journal's records, the checkpoint's first.
func (c *Coord) recover() (*pendingTransfer, error) {
	var pending *pendingTransfer
	err := c.log.Recover(
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
			case "stable":
				if rec.Final == nil {
					return errors.New("cluster: coordinator journal: stable without a map")
				}
				c.stable = *rec.Final
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

// Close stops the listener (if serving), then closes the block
// connections and the journal.
func (c *Coord) Close() error {
	c.cmu.Lock()
	srv, conns := c.srv, c.conns
	c.conns = nil
	c.cmu.Unlock()
	if conns == nil {
		return nil // already closed
	}
	if srv != nil {
		_ = srv.Close()
	}
	for _, bc := range conns {
		_ = bc.close()
	}
	return c.log.Close()
}

// Join admits a block and rebalances onto it. The block must already be
// serving — partitions are copied to it before the new map commits.
func (c *Coord) Join(addr string) error { return c.reshape(addr, true) }

// Leave retires a block: its partitions are copied off it (the leaving
// block is the preferred copy source) before the map that excludes it
// commits, after which it can shut down with nothing lost. It also
// retires a dead block: a copy the block cannot serve falls back to a
// surviving replica, the R ≥ 2 recovery path after a block failure.
func (c *Coord) Leave(addr string) error { return c.reshape(addr, false) }

// reshape runs one membership change as a journaled two-phase transition.
// It plans from the committed map, whose Blocks are the members, so a
// transfer that failed leaves nothing behind but its maps on the blocks:
// retrying the change plans it again, and any other change replaces it.
func (c *Coord) reshape(addr string, add bool) error {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	old := c.stable
	if containsAddr(old.Blocks, addr) == add && c.ver == old.Version {
		return nil // no-op: already a member / already gone, nothing failed since
	}
	members := make([]string, 0, len(old.Blocks)+1)
	for _, b := range old.Blocks {
		if b != addr {
			members = append(members, b)
		}
	}
	if add {
		members = append(members, addr)
	}

	final := BuildMap(c.ver+2, c.replicas, members)
	moves := movesBetween(old, final)
	trans := old.Clone()
	trans.Version = c.ver + 1
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
	c.ver = final.Version
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
		if err := c.cfg.faults.Check(faults.PointXfer, key); err != nil {
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
	// replays into the committed state, and so does a failed install.
	if err := c.append(coordRecord{Kind: "commit", Version: p.final.Version}); err != nil {
		return err
	}
	c.stable = p.final
	for _, b := range p.final.Blocks {
		if err := c.install(b, p.final); err != nil {
			return err
		}
	}
	c.dropRetired(p)
	return c.checkpoint()
}

// dumpPart fetches partition part's subscriptions from a surviving
// replica, preferring from, then the other old owners in order.
func (c *Coord) dumpPart(p *pendingTransfer, part int, from string) ([]Sub, error) {
	sources := []string{from}
	if part < len(c.stable.Assign) {
		for _, a := range c.stable.Assign[part] {
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
			if !containsAddr(p.final.Assign[part], a) && containsAddr(p.final.Blocks, a) {
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

// checkpoint compacts the journal to one stable record: everything
// outside an in-flight transition.
func (c *Coord) checkpoint() error {
	raw, err := json.Marshal(coordRecord{Kind: "stable", Final: &c.stable})
	if err != nil {
		return err
	}
	return c.log.Checkpoint(func(emit func([]byte) error) error { return emit(raw) })
}

// append journals one record: one JSON object in a CRC-checked frame.
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

// rpc runs one request/response round trip against a block over the
// coordinator's connection to it, which installs, dumps, copies and drops
// all reuse. The ring client's envelope applies: deadlines, bounded
// retries, and a down-cooldown that skips a block whose request failed.
func (c *Coord) rpc(addr string, kind byte, payload []byte) (byte, []byte, error) {
	c.cmu.Lock()
	if c.conns == nil {
		c.cmu.Unlock()
		return 0, nil, errCoordClosed
	}
	bc, ok := c.conns[addr]
	if !ok {
		bc = &blockConn{addr: addr}
		c.conns[addr] = bc
	}
	c.cmu.Unlock()
	return bc.request(&c.cfg, &c.st, kind, payload)
}

var errCoordClosed = errors.New("cluster: coordinator is closed")

// ServeCoord starts the coordinator's control listener on addr: the
// block server's frame loop, with a dispatch that answers 'J'/'L'
// (join/leave, carrying the subject block's address) once the rebalance
// is done. Clients fetch maps from the blocks, never from here. It
// returns once the listener is bound and refuses a coordinator that is
// closed or already serving; Close stops it.
func (c *Coord) ServeCoord(addr string) error {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	switch {
	case c.conns == nil:
		return errCoordClosed
	case c.srv != nil:
		return fmt.Errorf("cluster: coordinator already serves on %s", c.srv.Addr())
	}
	l, err := listen(addr, serverConfig{readIdle: DefaultReadIdle, faults: c.cfg.faults})
	if err != nil {
		return err
	}
	c.srv = l
	l.serve(c.dispatch)
	return nil
}

// Addr returns the bound listener address ("" before ServeCoord).
func (c *Coord) Addr() string {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if c.srv == nil {
		return ""
	}
	return c.srv.Addr()
}

// dispatch answers one control request for the listener.
func (c *Coord) dispatch(kind byte, r *bufio.Reader, w *bufio.Writer, key string, _ *matchScratch) (bool, error) {
	payload, err := readBlobBody(r, nil)
	if err != nil {
		return false, err
	}
	switch kind {
	case kindJoin:
		err = c.Join(string(payload))
	case kindLeave:
		err = c.Leave(string(payload))
	default:
		return false, fmt.Errorf("%w: unknown coordinator frame kind %q", ErrProtocol, kind)
	}
	if err != nil {
		// The rebalance failed, not this connection: answer in words
		// even when a block's EOF or an injected fault caused it.
		return false, errors.New(err.Error())
	}
	if err := c.cfg.faults.Check(faults.PointServeWrite, key); err != nil {
		return false, err
	}
	return true, writeBlob(w, kindAck, nil)
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

func coordRequest(coordAddr string, kind byte, addr string, opts []ClientOption) error {
	cfg := newClientConfig(opts)
	bc := &blockConn{addr: coordAddr}
	defer bc.close()
	rkind, _, err := bc.request(&cfg, new(netStats), kind, []byte(addr))
	if err != nil {
		return err
	}
	if rkind != kindAck {
		return fmt.Errorf("%w: coordinator answered %q", ErrProtocol, rkind)
	}
	return nil
}
