// Package cluster distributes the Monitoring Query Processor over the
// network, realising the two distributions of Section 4.2 across real
// processes. A block server (ServeDynamic) exposes a live core.Matcher
// over the partition-map protocol: the block accepts subscription
// Add/Remove while serving matches, hosts the partitions a versioned Map
// assigns to it, and participates in coordinator-driven rebalancing (see
// ring.go and coord.go). A block with no installed map serves every
// partition it holds, so a ring client over a fixed version-1 map built
// with R = 1 is plain static sharding, with no coordinator at all.
//
// The ring client (ringclient.go) routes a match by cover: every replica
// of a partition may serve reads, so a document goes to the fewest blocks
// whose hosted partitions cover its own — one block, asked on the
// caller's goroutine, whenever one hosts them all, which at R = N is
// always: the paper's "Processing speed" distribution, replicas sharing
// the document flow. With R < N the same plan is the "Memory"
// distribution, a document fanning out to the few blocks that hold its
// partitions between them. A failed block's partitions are re-covered by
// the replicas that remain before a result is ever marked degraded.
//
// Xyleme uses Corba between cluster nodes; the wire protocol here is a
// minimal length-prefixed binary exchange over the standard library's
// net package, documented in wire.go.
package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
	"time"

	"xymon/internal/core"
	"xymon/internal/faults"
)

// maxSetLen bounds accepted event-set and result sizes (a million events
// per document is far beyond any real alert).
const maxSetLen = 1 << 20

// ErrProtocol reports a malformed exchange.
var ErrProtocol = errors.New("cluster: protocol error")

// DefaultReadIdle is the default per-request read deadline of a block
// server: roughly twice the client's default I/O timeout, so a healthy
// client's think-time between requests never trips it, while a silent
// client stops pinning a handler goroutine within seconds instead of
// until Close.
const DefaultReadIdle = 10 * time.Second

// serverConfig is the tunable envelope of a Server.
type serverConfig struct {
	readIdle  time.Duration
	faults    *faults.Injector
	advertise string
}

// ServerOption configures ServeDynamic.
type ServerOption func(*serverConfig)

// WithReadIdle bounds how long a handler waits for the next request
// before closing the connection (default DefaultReadIdle). Clients
// reconnect transparently; a connect-and-stall peer cannot pin a handler
// goroutine. Zero keeps the default; a negative value disables the
// deadline (the pre-deadline behaviour, for tests that need a hang).
func WithReadIdle(d time.Duration) ServerOption { //xyvet:ignore testonly robustness knob the server tests tighten
	return func(c *serverConfig) { c.readIdle = d }
}

// WithServerInjector arms the server-side fault seams: connection
// admission consults faults.PointAccept, and each request read and
// response write consult faults.PointServeRead / faults.PointServeWrite,
// all keyed by the remote address. A nil injector keeps the seams
// transparent — the production and chaos configurations differ only by
// the injector.
func WithServerInjector(in *faults.Injector) ServerOption { //xyvet:ignore testonly fault seam of the chaos and server tests
	return func(c *serverConfig) { c.faults = in }
}

// WithAdvertise sets the address this block believes the partition map
// knows it by (default: the listener's address). The block refuses to
// read-serve partitions the installed map does not assign to that
// address — the guard that turns a stale client's misrouted match into a
// loud stale-map error instead of silently missing subscriptions.
func WithAdvertise(addr string) ServerOption {
	return func(c *serverConfig) { c.advertise = addr }
}

// Server serves match requests for one partition block.
type Server struct {
	*listener
	matcher *core.Matcher

	// The installed partition map and the partition of every hosted
	// subscription (avoiding a Definition lookup per matched id on the
	// filter path). smu nests outside the matcher's own lock.
	smu  sync.RWMutex
	pmap Map
	part map[core.ComplexID]int
}

// ServeDynamic starts a block server around a live matcher on the given
// address ("127.0.0.1:0" picks a free port). The matcher may start empty
// (a fresh block receives its partitions from the coordinator or a ring
// client's writes) or pre-loaded. The caller must not touch m afterwards
// — the server owns it. It returns immediately; use Addr for the bound
// address and Close to stop.
func ServeDynamic(addr string, m *core.Matcher, opts ...ServerOption) (*Server, error) {
	if m == nil {
		m = core.NewMatcher()
	}
	cfg := serverConfig{readIdle: DefaultReadIdle}
	for _, o := range opts {
		o(&cfg)
	}
	l, err := listen(addr, cfg)
	if err != nil {
		return nil, err
	}
	if l.cfg.advertise == "" {
		l.cfg.advertise = l.Addr()
	}
	s := &Server{listener: l, matcher: m, part: make(map[core.ComplexID]int)}
	// A pre-loaded matcher's subscriptions need their partitions on
	// record for the match filter and dumps.
	m.Range(func(id core.ComplexID, set core.EventSet) bool {
		s.part[id] = PartitionOf(set)
		return true
	})
	l.serve(s.dispatch)
	return s, nil
}

// Map returns the installed partition map (Version 0 when none).
func (s *Server) Map() Map {
	s.smu.RLock()
	defer s.smu.RUnlock()
	return s.pmap.Clone()
}

// Len returns the number of subscriptions this block currently hosts.
func (s *Server) Len() int { return s.matcher.Len() }

// listener is the frame server of a block and of the coordinator: it
// admits connections and runs each one's request loop.
type listener struct {
	cfg     serverConfig
	ln      net.Listener
	wg      sync.WaitGroup
	closing chan struct{}
	// dispatch reads the body of one request (kind already consumed) and
	// answers it. It returns keep=false to close the connection after the
	// response flushes, and a non-nil error to answer with an error frame
	// and close. sc is the connection's own match scratch.
	dispatch func(kind byte, r *bufio.Reader, w *bufio.Writer, key string, sc *matchScratch) (keep bool, err error)

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// listen binds addr; serve starts answering on it.
func listen(addr string, cfg serverConfig) (*listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return &listener{cfg: cfg, ln: ln, closing: make(chan struct{}), conns: make(map[net.Conn]struct{})}, nil
}

// serve starts the accept loop; every request is answered by dispatch.
func (l *listener) serve(dispatch func(byte, *bufio.Reader, *bufio.Writer, string, *matchScratch) (bool, error)) {
	l.dispatch = dispatch
	l.wg.Add(1)
	go l.acceptLoop()
}

// Addr returns the listener's address.
func (l *listener) Addr() string { return l.ln.Addr().String() }

// Close stops the listener, severs every active connection (a handler
// blocked on a client that never speaks again must not wedge shutdown),
// and waits for all handlers to drain.
func (l *listener) Close() error {
	l.mu.Lock()
	alreadyClosed := l.closed
	l.closed = true
	for conn := range l.conns {
		_ = conn.Close()
	}
	l.mu.Unlock()
	if !alreadyClosed {
		close(l.closing)
	}
	err := l.ln.Close()
	l.wg.Wait()
	if alreadyClosed {
		return nil
	}
	return err
}

// acceptLoop admits connections until Close. Transient accept errors
// (EMFILE, ECONNABORTED, …) back off exponentially — 1ms doubling to a
// 1s cap, the crawler's retry idiom — instead of hot-spinning the CPU
// against a condition that needs time to clear; any successful accept
// resets the backoff.
func (l *listener) acceptLoop() {
	defer l.wg.Done()
	backoff := time.Millisecond
	const backoffMax = time.Second
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			// Close closes l.closing before the listener, so the error
			// that Close causes returns here at once.
			select {
			case <-l.closing:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > backoffMax {
				backoff = backoffMax
			}
			continue
		}
		backoff = time.Millisecond
		if err := l.cfg.faults.Check(faults.PointAccept, remoteKey(conn)); err != nil {
			conn.Close()
			continue
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.conns[conn] = struct{}{}
		l.mu.Unlock()
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			l.handle(conn)
		}()
	}
}

func remoteKey(conn net.Conn) string {
	if addr := conn.RemoteAddr(); addr != nil {
		return addr.String()
	}
	return ""
}

func (l *listener) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
	}()
	key := remoteKey(conn)
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	var sc matchScratch
	for {
		// The idle deadline covers the wait for the next request and the
		// request/response exchange itself: a stalled or vanished client
		// frees this goroutine within the deadline, never "until Close".
		if l.cfg.readIdle > 0 {
			if err := conn.SetDeadline(time.Now().Add(l.cfg.readIdle)); err != nil {
				return
			}
		}
		if err := l.cfg.faults.Check(faults.PointServeRead, key); err != nil {
			return
		}
		kind, err := r.ReadByte()
		if err != nil {
			return
		}
		keep, err := l.dispatch(kind, r, w, key, &sc)
		if err != nil {
			// An injected write fault models a broken pipe: drop the
			// connection so the client's transport retry kicks in. A
			// protocol error, by contrast, is answered in words.
			if !errors.Is(err, io.EOF) && !errors.Is(err, faults.ErrInjected) {
				_ = l.writeChecked(w, key, func() error { return writeError(w, err) })
				w.Flush()
			}
			return
		}
		if !keep {
			w.Flush()
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// writeChecked consults the serve.write fault seam, then runs the write.
func (l *listener) writeChecked(w *bufio.Writer, key string, write func() error) error {
	if err := l.cfg.faults.Check(faults.PointServeWrite, key); err != nil {
		return err
	}
	return write()
}

// dispatch answers one block request for the listener.
func (s *Server) dispatch(kind byte, r *bufio.Reader, w *bufio.Writer, key string, sc *matchScratch) (keep bool, err error) {
	if kind == kindMatch {
		return s.handleMatch(r, w, key, sc)
	}
	payload, err := readBlobBody(r, nil)
	if err != nil {
		return false, err
	}
	resp := func(k byte, body []byte) error {
		return s.writeChecked(w, key, func() error { return writeBlob(w, k, body) })
	}
	switch kind {
	case kindAdd:
		return s.handleAdd(payload, resp)
	case kindRemove:
		return s.handleRemove(payload, resp)
	case kindDump:
		return s.handleDump(payload, resp)
	case kindDrop:
		return s.handleDrop(payload, resp)
	case kindInstall:
		return s.handleInstall(payload, resp)
	case kindMapReq:
		return s.handleMapReq(resp)
	default:
		return false, fmt.Errorf("%w: unknown frame kind %q", ErrProtocol, kind)
	}
}

// matchScratch is one connection's reusable match state: the request
// payload, the decoded event set and the matched ids. Each grows to the
// largest match the connection has carried and is never shared.
type matchScratch struct {
	payload []byte
	events  []core.Event
	ids     []core.ComplexID
}

// handleMatch answers a match: verify this block read-serves every
// requested partition under the installed map, match the live matcher,
// and filter the ids down to the requested partitions — all on the
// connection's scratch, the response written straight into w.
func (s *Server) handleMatch(r *bufio.Reader, w *bufio.Writer, key string, sc *matchScratch) (bool, error) {
	var err error
	if sc.payload, err = readBlobBody(r, sc.payload); err != nil {
		return false, err
	}
	var ver, want uint64
	if ver, want, sc.events, err = decodeMatch(sc.payload, sc.events[:0]); err != nil {
		return false, err
	}
	s.smu.RLock()
	m := s.pmap
	stale := false
	// A client whose map is newer than this block's learned it from a
	// block the coordinator reached first: that map assigns a partition
	// here only once the copy is done, so its plan is served as it is.
	if m.Version != 0 && ver <= m.Version {
		for ps := want; ps != 0 && !stale; ps &= ps - 1 {
			stale = !m.Hosts(bits.TrailingZeros64(ps), s.cfg.advertise)
		}
	}
	s.smu.RUnlock()
	if stale {
		return true, s.writeChecked(w, key, func() error { return writeBlob(w, kindStale, encodeU64(m.Version)) })
	}

	// The ring client sends canonical sets; anything else is sorted and
	// deduplicated as before.
	set := core.EventSet(sc.events)
	if !set.IsCanonical() {
		set = core.Canonical(sc.events)
	}
	sc.ids = s.matcher.MatchAppend(sc.ids[:0], set)
	ids := sc.ids[:0]
	s.smu.RLock()
	for _, id := range sc.ids {
		if p, ok := s.part[id]; ok && want&(1<<p) != 0 {
			ids = append(ids, id)
		}
	}
	s.smu.RUnlock()
	return true, s.writeChecked(w, key, func() error { return writeResults(w, ids) })
}

// checkWriteVersion bounces writes carrying an older map version than
// this block's: a subscription mutation from a stale client could miss a
// joining destination mid-handoff, so it is rejected until the client
// refreshes. Writes carrying a newer version are accepted — the client's
// target list came from the newer (correct) map, and applying the write
// on a block whose install push is still in flight is exactly what keeps
// the no-lost-subscription invariant; reads stay gated by the hosting
// check under the newer of the two maps, so an over-eager copy is never
// served from a block that map does not assign it to.
func (s *Server) checkWriteVersion(ver uint64) (stale bool, cur uint64) {
	s.smu.RLock()
	defer s.smu.RUnlock()
	if s.pmap.Version != 0 && ver < s.pmap.Version {
		return true, s.pmap.Version
	}
	return false, 0
}

// handleAdd registers (or replaces, idempotently) one subscription.
func (s *Server) handleAdd(payload []byte, resp func(byte, []byte) error) (bool, error) {
	ver, id, events, err := decodeSubOp(payload)
	if err != nil {
		return false, err
	}
	if stale, cur := s.checkWriteVersion(ver); stale {
		return true, resp(kindStale, encodeU64(cur))
	}
	set := core.Canonical(events)
	if len(set) == 0 {
		return false, core.ErrEmptyComplexEvent
	}
	cid := core.ComplexID(id)
	s.smu.Lock()
	if _, exists := s.part[cid]; exists {
		// Replace: transfer re-sends and client retries land here; the
		// newest definition wins.
		_ = s.matcher.Remove(cid, nil)
	}
	err = s.matcher.Add(cid, set)
	if err == nil {
		s.part[cid] = PartitionOf(set)
	}
	s.smu.Unlock()
	if err != nil {
		return false, err
	}
	return true, resp(kindAck, nil)
}

// handleRemove unregisters one subscription; removing an id this block
// never saw is a no-op (double-writes and retries make that routine).
func (s *Server) handleRemove(payload []byte, resp func(byte, []byte) error) (bool, error) {
	ver, id, _, err := decodeSubOp(payload)
	if err != nil {
		return false, err
	}
	if stale, cur := s.checkWriteVersion(ver); stale {
		return true, resp(kindStale, encodeU64(cur))
	}
	cid := core.ComplexID(id)
	s.smu.Lock()
	if _, exists := s.part[cid]; exists {
		_ = s.matcher.Remove(cid, nil)
		delete(s.part, cid)
	}
	s.smu.Unlock()
	return true, resp(kindAck, nil)
}

// partSubs snapshots every subscription of partition p.
func (s *Server) partSubs(p int) []Sub {
	var subs []Sub
	s.matcher.Range(func(id core.ComplexID, set core.EventSet) bool {
		if PartitionOf(set) == p {
			subs = append(subs, Sub{ID: id, Events: set.Clone()})
		}
		return true
	})
	return subs
}

// handleDump streams partition p's subscriptions to the coordinator.
func (s *Server) handleDump(payload []byte, resp func(byte, []byte) error) (bool, error) {
	p, err := decodeU32(payload)
	if err != nil {
		return false, err
	}
	return true, resp(kindDumped, encodeSubs(s.partSubs(int(p))))
}

// handleDrop discards partition p after a handoff moved it elsewhere.
func (s *Server) handleDrop(payload []byte, resp func(byte, []byte) error) (bool, error) {
	p, err := decodeU32(payload)
	if err != nil {
		return false, err
	}
	for _, sub := range s.partSubs(int(p)) {
		s.smu.Lock()
		_ = s.matcher.Remove(sub.ID, sub.Events)
		delete(s.part, sub.ID)
		s.smu.Unlock()
	}
	return true, resp(kindAck, nil)
}

// handleInstall adopts a new partition map. Regressions are ignored (a
// re-pushed older version acks without clobbering newer state, which
// makes coordinator recovery re-pushes idempotent).
func (s *Server) handleInstall(payload []byte, resp func(byte, []byte) error) (bool, error) {
	m, err := DecodeMap(payload)
	if err != nil {
		return false, err
	}
	s.smu.Lock()
	if m.Version >= s.pmap.Version {
		s.pmap = m
	}
	s.smu.Unlock()
	return true, resp(kindAck, nil)
}

// handleMapReq serves the installed map to a client. With none installed
// it answers version 0 in the shape DecodeMap checks, and the connection
// stays up.
func (s *Server) handleMapReq(resp func(byte, []byte) error) (bool, error) {
	s.smu.RLock()
	m := s.pmap
	s.smu.RUnlock()
	if m.Version == 0 {
		m.Assign = make([][]string, NumPartitions)
	}
	return true, resp(kindMapResp, m.Encode())
}
