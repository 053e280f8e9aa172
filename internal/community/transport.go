package community

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Conn is one bidirectional message channel between a node and the
// manager. Implementations must be safe for one concurrent sender and one
// concurrent receiver.
type Conn interface {
	Send(Envelope) error
	Recv() (Envelope, error)
	Close() error
}

// RecvTimeouter is the optional Conn extension the resilient client path
// needs: a per-receive deadline, so a dropped request or reply (or a dead
// peer) surfaces as a timeout error instead of hanging the caller forever.
// Both built-in transports implement it; zero disables the timeout.
type RecvTimeouter interface {
	SetRecvTimeout(time.Duration)
}

// errRecvTimeout marks a receive that expired without an envelope. It
// implements net.Error's Timeout contract so callers can treat pipe and
// TCP deadline expiries uniformly (see IsTimeout).
type errRecvTimeout struct{}

func (errRecvTimeout) Error() string   { return "community: recv timed out" }
func (errRecvTimeout) Timeout() bool   { return true }
func (errRecvTimeout) Temporary() bool { return true }

// IsTimeout reports whether an error from Conn.Recv (either substrate) is
// a receive-deadline expiry rather than a dead connection.
func IsTimeout(err error) bool {
	t, ok := err.(interface{ Timeout() bool })
	return ok && t.Timeout()
}

// ---- in-process transport ----

// pipeShared is the state common to both ends of an in-process pipe; the
// close is shared so that either (or both) ends may Close safely.
type pipeShared struct {
	once sync.Once
	done chan struct{}
}

func (s *pipeShared) close() { s.once.Do(func() { close(s.done) }) }

type pipeConn struct {
	out    chan<- Envelope
	in     <-chan Envelope
	shared *pipeShared
	// recvTimeout bounds each Recv in nanoseconds (0 = wait forever). An
	// atomic so SetRecvTimeout from a connecting goroutine never races the
	// receiver.
	recvTimeout atomic.Int64
}

// Pipe returns a connected in-process transport pair (node side, manager
// side). It is the test/bench substrate; the TCP transport below is the
// deployment analog. Closing either end closes the pair.
func Pipe() (Conn, Conn) {
	a := make(chan Envelope, 64)
	b := make(chan Envelope, 64)
	shared := &pipeShared{done: make(chan struct{})}
	return &pipeConn{out: a, in: b, shared: shared},
		&pipeConn{out: b, in: a, shared: shared}
}

func (c *pipeConn) Send(e Envelope) error {
	// The close is checked first: select picks among ready cases at
	// random, so with buffer room a send after Close would succeed about
	// half the time, into a buffer nobody reads.
	select {
	case <-c.shared.done:
		return fmt.Errorf("community: send on closed pipe")
	default:
	}
	select {
	case <-c.shared.done:
		return fmt.Errorf("community: send on closed pipe")
	case c.out <- e:
		return nil
	}
}

// SetRecvTimeout bounds every subsequent Recv (0 = wait forever).
func (c *pipeConn) SetRecvTimeout(d time.Duration) { c.recvTimeout.Store(int64(d)) }

func (c *pipeConn) Recv() (Envelope, error) {
	// Envelopes already buffered in the channel beat both the close signal
	// and the timeout: a real TCP stack delivers bytes that were in flight
	// before the FIN, and a racing Close must not drop them (the manager's
	// last directive snapshot may be in that buffer).
	select {
	case e := <-c.in:
		return e, nil
	default:
	}
	var timeout <-chan time.Time
	if d := time.Duration(c.recvTimeout.Load()); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-c.shared.done:
		// The close may have raced an in-flight Send; drain it if so.
		select {
		case e := <-c.in:
			return e, nil
		default:
		}
		return Envelope{}, fmt.Errorf("community: recv on closed pipe")
	case e := <-c.in:
		return e, nil
	case <-timeout:
		return Envelope{}, errRecvTimeout{}
	}
}

func (c *pipeConn) Close() error {
	c.shared.close()
	return nil
}

// ---- TCP transport ----

type tcpConn struct {
	c   net.Conn
	enc *gob.Encoder
	dec *gob.Decoder
	sMu sync.Mutex
	rMu sync.Mutex
	// recvTimeout/sendTimeout bound each op in nanoseconds (0 = no
	// deadline). Atomics for the same reason as pipeConn's.
	recvTimeout atomic.Int64
	sendTimeout atomic.Int64
}

// defaultTCPSendTimeout bounds every TCP send even when the caller sets no
// explicit timeout: a peer that stops draining its socket (dead but not
// closed, or partitioned away) must surface as a write error, never hang a
// manager goroutine forever. Generous — an honest envelope flushes in
// microseconds; only a wedged peer takes minutes.
const defaultTCPSendTimeout = 2 * time.Minute

func newTCPConn(c net.Conn) *tcpConn {
	return &tcpConn{c: c, enc: gob.NewEncoder(c), dec: gob.NewDecoder(c)}
}

// SetRecvTimeout bounds every subsequent Recv (0 = wait forever).
func (t *tcpConn) SetRecvTimeout(d time.Duration) { t.recvTimeout.Store(int64(d)) }

// SetSendTimeout bounds every subsequent Send (0 = the package default;
// see defaultTCPSendTimeout).
func (t *tcpConn) SetSendTimeout(d time.Duration) { t.sendTimeout.Store(int64(d)) }

func (t *tcpConn) Send(e Envelope) error {
	t.sMu.Lock()
	defer t.sMu.Unlock()
	d := time.Duration(t.sendTimeout.Load())
	if d <= 0 {
		d = defaultTCPSendTimeout
	}
	if err := t.c.SetWriteDeadline(time.Now().Add(d)); err != nil {
		return fmt.Errorf("community: tcp send deadline: %w", err)
	}
	return t.enc.Encode(e)
}

func (t *tcpConn) Recv() (Envelope, error) {
	t.rMu.Lock()
	defer t.rMu.Unlock()
	var deadline time.Time // zero = wait forever
	if d := time.Duration(t.recvTimeout.Load()); d > 0 {
		deadline = time.Now().Add(d)
	}
	if err := t.c.SetReadDeadline(deadline); err != nil {
		return Envelope{}, fmt.Errorf("community: tcp recv deadline: %w", err)
	}
	var e Envelope
	err := t.dec.Decode(&e)
	return e, err
}

func (t *tcpConn) Close() error { return t.c.Close() }

// Dial connects a node to a manager's TCP listener.
func Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("community: dial %s: %w", addr, err)
	}
	return newTCPConn(c), nil
}

// Listener accepts node connections for a manager.
type Listener struct {
	l net.Listener
}

// Listen opens a manager-side TCP listener on addr ("127.0.0.1:0" for an
// ephemeral test port).
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("community: listen %s: %w", addr, err)
	}
	return &Listener{l: l}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Accept returns the next node connection.
func (l *Listener) Accept() (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, fmt.Errorf("community: accept on %s: %w", l.Addr(), err)
	}
	return newTCPConn(c), nil
}

// Close stops accepting.
func (l *Listener) Close() error { return l.l.Close() }
