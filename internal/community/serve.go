package community

import (
	"fmt"
	"sync"
	"time"
)

// endpoint is one tier — a Manager, an Aggregator or a RootGroup — as a
// transport sees it: the handler each request goes to, and the set that
// tracks the tier's live connections so a crash can sever them.
type endpoint struct {
	handle func(env Envelope, bound *string) (Envelope, error)
	conns  *connSet // nil: the tier never severs its connections
}

// answer applies one envelope and returns the reply with the request
// token echoed (see Envelope.Token). bound is the connection's pinned
// sender identity (see bindSender).
func (ep endpoint) answer(env Envelope, bound *string) (Envelope, error) {
	reply, err := ep.handle(env, bound)
	if err != nil {
		return Envelope{}, err
	}
	reply.Token = env.Token
	return reply, nil
}

// serve is every tier's request loop: receive, answer, send, until the
// connection dies. The connection is bound to the first sender identity
// it claims, and tracked while it lives.
func (ep endpoint) serve(conn Conn) error {
	defer conn.Close()
	if err := ep.conns.add(conn); err != nil {
		return err
	}
	defer ep.conns.remove(conn)
	var sender string
	for {
		env, err := conn.Recv()
		if err != nil {
			return err
		}
		reply, err := ep.answer(env, &sender)
		if err != nil {
			return err
		}
		if err := conn.Send(reply); err != nil {
			return err
		}
	}
}

// connSet tracks a tier's live connections: Serve'd pipes and TCP streams
// and loopbacks alike. Its lock is its own and is never held while a
// connection closes, so a loopback dropping out of the set as it closes
// cannot deadlock against the tier severing it under the tier's lock.
type connSet struct {
	name   string // the tier, for the refusal error
	mu     sync.Mutex
	conns  map[Conn]bool
	closed bool
}

func newConnSet(name string) *connSet {
	return &connSet{name: name, conns: make(map[Conn]bool)}
}

// add tracks c; a closed set refuses it.
func (s *connSet) add(c Conn) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("community: %s is closed", s.name)
	}
	s.conns[c] = true
	return nil
}

// remove stops tracking c, so a long-lived tier under churn holds only
// live connections.
func (s *connSet) remove(c Conn) {
	if s == nil {
		return
	}
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// sever closes every tracked connection; final also refuses every later
// one (the tier is shutting down, not failing over).
func (s *connSet) sever(final bool) {
	s.mu.Lock()
	s.closed = s.closed || final
	conns := s.conns
	s.conns = make(map[Conn]bool)
	s.mu.Unlock()
	for c := range conns {
		_ = c.Close()
	}
}

// pipeTransport connects a client to a tier over an in-process Pipe
// served by its own goroutine: RunSoak's transport.
func pipeTransport(ep endpoint) Conn {
	client, server := Pipe()
	go func() { _ = ep.serve(server) }()
	return client
}

// loopback connects a client to a tier through a loopConn: the simulated
// soak's transport, with no goroutine per connection. A connection to a
// closed tier starts dead, as a Serve'd pipe would.
func loopback(ep endpoint) Conn {
	c := &loopConn{ep: ep}
	if ep.conns.add(c) != nil {
		c.closed = true
	}
	return c
}

// loopConn is a client-side Conn whose Send answers the envelope inline,
// on the caller's goroutine, through the tier's own handler and token
// echo, and queues the reply for Recv. One loopConn stands in for one
// Pipe plus one Serve goroutine.
//
// Every exchange completes inside Send, so an empty queue never fills
// later: Recv with a deadline armed times out at once (the outcome a
// wall-clock wait would reach), and Recv with none is a protocol bug,
// reported instead of deadlocking.
type loopConn struct {
	ep     endpoint
	bound  string // the connection's sender identity (see bindSender)
	queue  []Envelope
	timed  bool // a receive deadline is armed
	closed bool
}

// Send answers e and queues the reply. A handler error hangs up, as a
// Serve loop's exit does: the envelope was delivered, so Send succeeds,
// and the client finds the dead wire on its Recv.
func (c *loopConn) Send(e Envelope) error {
	if c.closed {
		return fmt.Errorf("community: send on closed loopback")
	}
	reply, err := c.ep.answer(e, &c.bound)
	if err != nil {
		_ = c.Close()
		return nil
	}
	c.queue = append(c.queue, reply)
	return nil
}

// Recv pops the next queued reply. Queued replies beat the close, as
// buffered envelopes do on a pipe.
func (c *loopConn) Recv() (Envelope, error) {
	if len(c.queue) > 0 {
		e := c.queue[0]
		c.queue = c.queue[1:]
		return e, nil
	}
	if c.closed {
		return Envelope{}, fmt.Errorf("community: recv on closed loopback")
	}
	if c.timed {
		return Envelope{}, errRecvTimeout{}
	}
	return Envelope{}, fmt.Errorf("community: loopback recv would block forever (no reply queued, no receive deadline)")
}

// SetRecvTimeout arms (d > 0) or disarms the receive deadline.
func (c *loopConn) SetRecvTimeout(d time.Duration) { c.timed = d > 0 }

// Close marks the connection dead and drops it from its tier's set;
// already-queued replies stay readable.
func (c *loopConn) Close() error {
	c.closed = true
	c.ep.conns.remove(c)
	return nil
}
