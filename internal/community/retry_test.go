package community

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

// instantRetry is a retry policy with the default budgets and no backoff,
// so a retry test spends no wall-clock time between attempts.
func instantRetry() *RetryPolicy {
	return &RetryPolicy{Seed: 1, BaseDelay: time.Nanosecond, MaxDelay: time.Nanosecond}
}

// scriptedConn accepts every send, counting it by kind. It fails the
// first fails receives with recvErr at once (a timeout on a healthy wire,
// or a dead wire), then answers the latest request's token with empty
// directives.
type scriptedConn struct {
	sends   map[MsgKind]int
	fails   int
	recvErr error
	last    Envelope
}

func (c *scriptedConn) Send(e Envelope) error {
	c.sends[e.Kind]++
	c.last = e
	return nil
}

func (c *scriptedConn) Recv() (Envelope, error) {
	if c.fails > 0 {
		c.fails--
		return Envelope{}, c.recvErr
	}
	reply, err := NewEnvelope(MsgDirectives, Directives{})
	reply.Token = c.last.Token
	return reply, err
}

func (c *scriptedConn) Close() error { return nil }

// TestNodeReportAtMostOnce: once a report's send has succeeded, the peer
// may already have applied it, so no retry may send it again — neither a
// resync in place after a receive timeout nor one over a re-dialed
// connection after a dead wire, whether or not the new connection answers.
// Every later attempt is a Hello.
func TestNodeReportAtMostOnce(t *testing.T) {
	dead := fmt.Errorf("community: recv on closed pipe")
	for _, tc := range []struct {
		name        string
		recvErr     error
		redialFails int // receives each re-dialed connection fails
	}{
		{"recv-timeout", errRecvTimeout{}, math.MaxInt},
		{"dead-wire", dead, math.MaxInt},
		{"dead-wire-healthy-redial", dead, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sends := map[MsgKind]int{}
			conn := &scriptedConn{sends: sends, fails: math.MaxInt, recvErr: tc.recvErr}
			dial := func() (Conn, error) {
				return &scriptedConn{sends: sends, fails: tc.redialFails, recvErr: tc.recvErr}, nil
			}
			n := NewNode("n0", nil, conn)
			n.EnableResilience(instantRetry(), dial, nil)

			env, err := NewEnvelope(MsgRunReport, RunReport{NodeID: n.ID})
			if err != nil {
				t.Fatal(err)
			}
			err = n.roundTrip(env)
			if got := sends[MsgRunReport]; got != 1 {
				t.Fatalf("report sent %d times, want exactly 1 (round trip ended with %v)", got, err)
			}
			if sends[MsgHello] == 0 {
				t.Fatalf("no Hello resync after the surrendered report: sends %v", sends)
			}
		})
	}
}

// TestNodeSlowReplyDrawsTimeoutBudget: receive timeouts on a healthy
// connection draw on RetryPolicy.TimeoutAttempts, not MaxAttempts. A report
// whose upstream times out more receives than MaxAttempts — but fewer than
// TimeoutAttempts — still completes, in place: the report is sent once, the
// resyncs ride the same connection, and the node never reconnects.
func TestNodeSlowReplyDrawsTimeoutBudget(t *testing.T) {
	const timeouts = 10
	sends := map[MsgKind]int{}
	dial := func() (Conn, error) {
		return &scriptedConn{sends: sends, fails: timeouts, recvErr: errRecvTimeout{}}, nil
	}
	conn, _ := dial()
	n := NewNode("n0", nil, conn)
	reg := obs.New()
	n.EnableResilience(instantRetry(), dial, reg)
	if pol := n.rt.pol; !(pol.MaxAttempts < timeouts && timeouts < pol.TimeoutAttempts) {
		t.Fatalf("%d timeouts must fall between MaxAttempts %d and TimeoutAttempts %d",
			timeouts, pol.MaxAttempts, pol.TimeoutAttempts)
	}

	env, err := NewEnvelope(MsgRunReport, RunReport{NodeID: n.ID})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.roundTrip(env); err != nil {
		t.Fatal(err)
	}
	if got := sends[MsgRunReport]; got != 1 {
		t.Fatalf("report sent %d times, want exactly 1", got)
	}
	if got := reg.Counter("node.reconnects").Value(); got != 0 {
		t.Fatalf("node reconnected %d times over a healthy connection", got)
	}
	if got := reg.Counter("node.retries").Value(); got != timeouts {
		t.Fatalf("node.retries = %d, want one per timeout (%d)", got, timeouts)
	}
}
