package community

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// client is a member node's or an aggregator's side of the community
// protocol: its connection to the tier above and the one retry loop every
// upstream exchange runs through. Round trips on one client are serial (a
// node is driven by one goroutine at a time; an aggregator flushes under
// flushMu), so the token and the retrier need no lock. The connection is
// swapped under mu, because Close may come from another goroutine.
type client struct {
	role, id string               // "node" or "aggregator", and the identity its Hellos carry
	rt       retrier              // budgets and backoff; the zero retrier fails fast
	redial   func() (Conn, error) // nil: retry on the same connection
	token    uint64               // the last request token stamped

	cSent    *obs.Counter // successful sends (nil: uncounted)
	cRetries *obs.Counter // retried attempts
	cRedials *obs.Counter // fresh connections dialed past faults

	mu     sync.Mutex
	conn   Conn
	closed bool // a re-dial must not revive a closed client; attach may
}

// arm installs a retry policy (nil: one attempt, no receive deadline), the
// re-dial path and the retry counters, and applies the policy's receive
// deadline to the live connection.
func (c *client) arm(p *RetryPolicy, redial func() (Conn, error), retries, redials *obs.Counter) {
	c.rt.arm(p, c.id)
	c.redial, c.cRetries, c.cRedials = redial, retries, redials
	c.setDeadline(c.live())
}

// setDeadline bounds conn's receives by the policy's deadline, when there
// is one and the transport supports it.
func (c *client) setDeadline(conn Conn) {
	if rt, ok := conn.(RecvTimeouter); ok && c.rt.pol.RecvTimeout > 0 {
		rt.SetRecvTimeout(c.rt.pol.RecvTimeout)
	}
}

// live reads the current connection.
func (c *client) live() Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn
}

// attach installs conn as the live connection, reopening a closed client,
// and closes the connection it replaces.
func (c *client) attach(conn Conn) { _ = c.install(conn, true) }

// reconnect replaces the live connection with a freshly dialed one (after
// a root failover the dial lands on the promoted leader).
func (c *client) reconnect() error {
	conn, err := c.redial()
	if err != nil {
		return err
	}
	if err := c.install(conn, false); err != nil {
		return err
	}
	c.cRedials.Inc()
	return nil
}

// install swaps conn in and closes the connection it replaces. A closed
// client refuses a re-dialed connection unless revive is set.
func (c *client) install(conn Conn, revive bool) error {
	c.setDeadline(conn)
	c.mu.Lock()
	if c.closed && !revive {
		c.mu.Unlock()
		_ = conn.Close()
		return fmt.Errorf("community: %s %s is closed", c.role, c.id)
	}
	old := c.conn
	c.conn, c.closed = conn, false
	c.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
	return nil
}

// close closes the live connection and refuses later re-dials.
func (c *client) close() error {
	c.mu.Lock()
	conn := c.conn
	c.closed = true
	c.mu.Unlock()
	if conn == nil {
		return nil
	}
	return conn.Close()
}

// nextToken stamps a fresh request token.
func (c *client) nextToken() uint64 {
	c.token++
	return c.token
}

// resync stamps a Hello under a fresh token: it re-registers the client
// upstream (a sibling aggregator or a promoted root re-learns the member),
// and its reply refreshes the directives.
func (c *client) resync() (Envelope, error) {
	env, err := NewEnvelope(MsgHello, Hello{NodeID: c.id})
	env.Token = c.nextToken()
	return env, err
}

// roundTrip sends req under a fresh token and hands the reply carrying
// that token to accept, retrying with backoff until accept takes one or a
// budget runs out. Each failure is charged to the budget that matches what
// it says about the connection:
//
//   - A receive that times out after a successful send means the wire is
//     healthy and the reply is slow or lost. It draws on TimeoutAttempts,
//     and the retry stays on the same connection, where a slow reply is
//     still riding: an envelope re-sent in place keeps its token, so a
//     late reply to any copy completes the round trip.
//   - A send error, any other receive failure, a reply accept refuses, or
//     a failed re-dial is a hard failure. It draws on MaxAttempts, and the
//     retry re-dials first (in place, without a redial path).
//
// Every retry waits a backoff that grows with the attempts made so far.
// Without a policy the budgets allow one attempt.
//
// resend is the caller's one policy: whether req may be sent again. An
// aggregator's numbered flush may, because the manager applies each
// FlushSeq at most once; so may a Hello. Anything else is delivered at most
// once: after one send of it succeeds, the peer may already have applied
// it, so every later attempt is a Hello resync, and the round trip
// succeeds once a resync's reply is accepted. Without resend, a re-dial is
// followed by a Hello re-registration, and then by req if it was never
// sent.
func (c *client) roundTrip(sp *obs.Span, req Envelope, resend bool, accept func(Envelope) error) error {
	req.Token = c.nextToken()
	env := req
	surrendered := false // req was sent once and may not be sent again
	owed := false        // env is a re-registration Hello that req must follow
	redial := false      // a hard failure condemned the connection
	hard, slow := 0, 0
	for {
		var sent bool
		var err error
		if redial {
			if err = c.reconnect(); err == nil {
				redial = false
				if !resend {
					if env, err = c.resync(); err != nil {
						return err
					}
					owed = !surrendered
				}
				continue
			}
		} else if sent, err = c.exchange(sp, env, accept); err == nil {
			if !owed {
				return nil
			}
			env, owed = req, false
			continue
		}
		timedOut := sent && IsTimeout(err)
		if timedOut {
			slow++
		} else {
			hard++
		}
		if hard >= c.rt.pol.MaxAttempts || hard+slow >= c.rt.pol.TimeoutAttempts {
			return fmt.Errorf("community: %s %s: round trip failed after %d attempts: %w",
				c.role, c.id, hard+slow, err)
		}
		c.cRetries.Inc()
		c.rt.sleep(hard + slow - 1)
		if sent && !resend && !owed && !surrendered {
			// env is req; re-sending it could double-count this
			// node's runs upstream.
			surrendered = true
			if env, err = c.resync(); err != nil {
				return err
			}
		}
		redial = !timedOut && c.redial != nil
	}
}

// exchange sends env on the live connection, then receives until a reply
// carries env's token (draining the stray replies that duplicated or
// abandoned requests left on the channel) and hands it to accept. sent
// reports whether the send succeeded: once it has, the peer may have
// applied env.
func (c *client) exchange(sp *obs.Span, env Envelope, accept func(Envelope) error) (sent bool, err error) {
	conn := c.live()
	sp.BlockFor("upstream", func() { err = conn.Send(env) })
	if err != nil {
		return false, err
	}
	c.cSent.Inc()
	for {
		var reply Envelope
		sp.BlockFor("upstream", func() { reply, err = conn.Recv() })
		if err != nil {
			return true, err
		}
		if reply.Token == env.Token {
			return true, accept(reply)
		}
	}
}
