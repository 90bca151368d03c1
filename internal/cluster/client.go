package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"xymon/internal/core"
	"xymon/internal/faults"
)

// ErrBlockDown reports a block skipped because it exhausted its retry
// budget recently and is sitting out its down-cooldown window.
var ErrBlockDown = errors.New("cluster: block down")

// RemoteError is an error frame answered by a block server: the transport
// worked, the request did not. Remote errors are not retried — resending
// the same malformed request would fail the same way.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "cluster: remote: " + e.Msg }

// clientConfig is the tunable robustness envelope of the ring client and
// the coordinator's block connections.
type clientConfig struct {
	dialer      func(addr string) (net.Conn, error)
	dialTimeout time.Duration
	ioTimeout   time.Duration
	retries     int // reconnect-and-resend attempts per block per match
	downBase    time.Duration
	downMax     time.Duration
	clock       func() time.Time
	faults      *faults.Injector
}

// ClientOption configures a ring client (NewRingClientWithMap) and the
// coordinator's connections (NewCoord, JoinCluster, LeaveCluster).
type ClientOption func(*clientConfig)

// WithDialer substitutes the connection factory — fault-injection tests
// wrap every produced conn; production could add TLS.
func WithDialer(dial func(addr string) (net.Conn, error)) ClientOption {
	return func(c *clientConfig) { c.dialer = dial }
}

// WithInjector arms the default dialer's fault seam (faults.PointConn)
// and, on a coordinator, its transfer, admission and journal points
// (faults.PointXfer, PointAccept, PointServe*, the WAL ops), which no
// dialer reaches. A nil injector (the default) keeps the seams
// transparent, so the production and chaos configurations differ only
// by the injector, not by the code path.
func WithInjector(in *faults.Injector) ClientOption { //xyvet:ignore testonly fault seam of the crash-mid-transfer tests
	return func(c *clientConfig) { c.faults = in }
}

// WithTimeouts bounds connection establishment and each request/response
// exchange. A zero keeps the default (2s dial, 5s I/O). Deadlines are what
// turn a hung peer from "every document stalls forever" into an error the
// retry path can act on.
func WithTimeouts(dial, io time.Duration) ClientOption { //xyvet:ignore testonly robustness knob the chaos and cluster tests tighten
	return func(c *clientConfig) {
		if dial > 0 {
			c.dialTimeout = dial
		}
		if io > 0 {
			c.ioTimeout = io
		}
	}
}

// WithRetries sets how many times one Match reconnects and resends to a
// failing block before giving up on it (default 2).
func WithRetries(n int) ClientOption { //xyvet:ignore testonly robustness knob the chaos and cluster tests tighten
	return func(c *clientConfig) { c.retries = n }
}

// WithDownCooldown bounds the exponential cooldown a block sits out after
// exhausting its retry budget: base·2ⁿ⁻¹ capped at max (defaults 1s/30s).
// While cooling down the block is skipped instantly; the first Match after
// the window doubles as the health probe.
func WithDownCooldown(base, max time.Duration) ClientOption { //xyvet:ignore testonly robustness knob the chaos and cluster tests tighten
	return func(c *clientConfig) {
		if base > 0 {
			c.downBase = base
		}
		if max > 0 {
			c.downMax = max
		}
	}
}

// WithClientClock substitutes the time source of the down-cooldown
// bookkeeping (the I/O deadlines always run on the real clock — the
// kernel knows no virtual time).
func WithClientClock(clock func() time.Time) ClientOption { //xyvet:ignore testonly virtual clock of the cooldown tests
	return func(c *clientConfig) { c.clock = clock }
}

// newClientConfig applies opts over the defaults and resolves the dialer.
func newClientConfig(opts []ClientOption) clientConfig {
	cfg := clientConfig{
		dialTimeout: 2 * time.Second,
		ioTimeout:   5 * time.Second,
		retries:     2,
		downBase:    time.Second,
		downMax:     30 * time.Second,
		clock:       time.Now,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.dialer == nil {
		// The default dialer goes through the fault seam even when no
		// injector is installed (nil makes the wrapper transparent): the
		// chaos path and the production path are the same code.
		cfg.dialer = faults.Dialer(cfg.faults, faults.PointConn, cfg.dialTimeout)
	}
	return cfg
}

// ClientStats counts the client's robustness activity.
type ClientStats struct {
	// Retries counts reconnect-and-resend attempts after a transport
	// error mid-match.
	Retries uint64
	// Reconnects counts successful re-dials of a lost block connection.
	Reconnects uint64
	// Degraded counts matches that returned partial results because at
	// least one block was unavailable.
	Degraded uint64
	// BlockFailures counts block give-ups (retry budget exhausted or
	// dial failure), each starting a down-cooldown window.
	BlockFailures uint64
	// Failovers counts partitions re-routed to another replica after the
	// block asked for them failed mid-match — one per partition moved,
	// not one per failed block; a partition left without a replica is
	// not counted here but reported through Degraded.
	Failovers uint64
	// MapRefreshes counts partition-map refetches after a stale-map
	// rejection.
	MapRefreshes uint64
}

// netStats holds the ring client's atomic robustness counters.
type netStats struct {
	retries       atomic.Uint64
	reconnects    atomic.Uint64
	degraded      atomic.Uint64
	blockFailures atomic.Uint64
	failovers     atomic.Uint64
	mapRefreshes  atomic.Uint64
}

func (st *netStats) snapshot() ClientStats {
	return ClientStats{
		Retries:       st.retries.Load(),
		Reconnects:    st.reconnects.Load(),
		Degraded:      st.degraded.Load(),
		BlockFailures: st.blockFailures.Load(),
		Failovers:     st.failovers.Load(),
		MapRefreshes:  st.mapRefreshes.Load(),
	}
}

// Result is the outcome of one ring match.
type Result struct {
	IDs []core.ComplexID
	// Degraded is set when at least one partition contributed no answer:
	// the IDs are the matches of the partitions that responded. With
	// R ≥ 2 a single block failure never sets this — every partition
	// fails over to a replica first; Degraded marks the last resort, not
	// the common case.
	Degraded bool
	// Down lists the addresses of the blocks that did not answer.
	Down []string
}

// blockConn is one block's connection and its down-cooldown state.
type blockConn struct {
	mu   sync.Mutex
	addr string
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	buf  []byte // match-reply payload, reused across exchanges
	// dialed is set by the first connection; every later one is a
	// reconnect. closed is set by close: no call dials again.
	dialed bool
	closed bool
	// downFails counts consecutive give-ups; downUntil is the end of the
	// current cooldown window.
	downFails int
	downUntil time.Time
}

// BlockHealth is one block's liveness snapshot.
type BlockHealth struct {
	Addr      string
	Up        bool
	Fails     int       // consecutive give-ups
	DownUntil time.Time // end of the current cooldown (zero when up)
}

// attachLocked adopts a fresh connection (bc.mu held), counting it as a
// reconnect unless it is the block's first.
func (bc *blockConn) attachLocked(conn net.Conn, st *netStats) {
	if bc.dialed {
		st.reconnects.Add(1)
	}
	bc.dialed = true
	bc.conn = conn
	bc.r = bufio.NewReader(conn)
	bc.w = bufio.NewWriter(conn)
}

// close closes the block's connection, if any, and reports what Close
// said. A call still waiting for bc.mu fails instead of dialing again.
func (bc *blockConn) close() (err error) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	bc.closed = true
	if bc.conn != nil {
		err, bc.conn = bc.conn.Close(), nil
	}
	return err
}

// teardownLocked drops a broken connection.
func (bc *blockConn) teardownLocked() {
	if bc.conn != nil {
		_ = bc.conn.Close()
		bc.conn = nil
		bc.r, bc.w = nil, nil
	}
}

// markDownLocked starts (or extends) the down-cooldown window after a
// give-up: base·2ⁿ⁻¹ capped at max.
func (bc *blockConn) markDownLocked(cfg *clientConfig, st *netStats) {
	bc.downFails++
	d := cfg.downBase
	for i := 1; i < bc.downFails && d < cfg.downMax; i++ {
		d *= 2
	}
	if d > cfg.downMax {
		d = cfg.downMax
	}
	// The clock is time.Now or a test stub reading a local variable; it
	// never blocks or re-enters.
	//xyvet:ignore lockcheck
	bc.downUntil = cfg.clock().Add(d)
	st.blockFailures.Add(1)
}

// call runs one request/response exchange against the block with the
// full robustness envelope: skip-while-down, reconnect, deadline-bounded
// I/O, and a bounded number of reconnect-and-resend retries before the
// block is marked down. send writes the request; recv reads the whole
// response (capturing results through its closure). A *RemoteError from
// recv is surfaced without retry — the transport worked.
func (bc *blockConn) call(cfg *clientConfig, st *netStats, send func(w *bufio.Writer) error, recv func(r *bufio.Reader) error) error {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt <= cfg.retries; attempt++ {
		if attempt > 0 {
			st.retries.Add(1)
		}
		if bc.conn == nil {
			if bc.closed {
				return fmt.Errorf("cluster: connection to %s is closed", bc.addr)
			}
			// Clock and dialer are config-owned leaves (see Probe); the
			// dial must hold bc.mu so concurrent matches on the same block
			// do not race to reconnect.
			//xyvet:ignore lockcheck
			if cfg.clock().Before(bc.downUntil) {
				return fmt.Errorf("%w: %s until %s", ErrBlockDown, bc.addr, bc.downUntil.Format(time.RFC3339))
			}
			//xyvet:ignore lockcheck
			conn, err := cfg.dialer(bc.addr)
			if err != nil {
				lastErr = err
				bc.markDownLocked(cfg, st)
				return err
			}
			bc.attachLocked(conn, st)
		}
		err := bc.exchangeLocked(cfg.ioTimeout, send, recv)
		if err == nil {
			bc.downFails = 0
			bc.downUntil = time.Time{}
			return nil
		}
		lastErr = err
		bc.teardownLocked()
		var remote *RemoteError
		if errors.As(err, &remote) {
			// The block is alive and answered; retrying the same request
			// buys nothing and the block is not "down".
			return err
		}
	}
	bc.markDownLocked(cfg, st)
	return lastErr
}

// request runs one blob round trip through call.
func (bc *blockConn) request(cfg *clientConfig, st *netStats, kind byte, payload []byte) (rkind byte, rbody []byte, err error) {
	err = bc.call(cfg, st,
		func(w *bufio.Writer) error { return writeBlob(w, kind, payload) },
		func(r *bufio.Reader) (err error) {
			rkind, rbody, err = readBlob(r, nil)
			return err
		})
	return rkind, rbody, err
}

// exchangeLocked performs one deadline-bounded request/response. Every
// Read and Write on the conn happens inside the deadline set here — the
// connguard analyzer's contract.
func (bc *blockConn) exchangeLocked(ioTimeout time.Duration, send func(w *bufio.Writer) error, recv func(r *bufio.Reader) error) error {
	if ioTimeout > 0 {
		if err := bc.conn.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
			return err
		}
	}
	// send and recv are this package's own frame codecs (see call's
	// contract): they touch only the deadline-bounded bufio pair, never
	// the client's locks.
	//xyvet:ignore lockcheck
	if err := send(bc.w); err != nil {
		return err
	}
	if err := bc.w.Flush(); err != nil {
		return err
	}
	//xyvet:ignore lockcheck
	return recv(bc.r)
}
