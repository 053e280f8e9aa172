package community

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/daikon"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/vm"
	"repro/internal/webapp"
)

// instantRetry is a retry policy with the default budgets and no backoff,
// so a retry test spends no wall-clock time between attempts.
func instantRetry() *RetryPolicy {
	return &RetryPolicy{Seed: 1, BaseDelay: time.Nanosecond, MaxDelay: time.Nanosecond}
}

// scriptedConn accepts every send, counting it by kind. It fails the
// first fails receives with recvErr at once (a timeout on a healthy wire,
// or a dead wire), then answers the latest request's token with the next
// of dirs, or with empty directives once dirs runs out.
type scriptedConn struct {
	sends   map[MsgKind]int
	fails   int
	recvErr error
	last    Envelope
	dirs    []Directives
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
	var dir Directives
	if len(c.dirs) > 0 {
		dir, c.dirs = c.dirs[0], c.dirs[1:]
	}
	reply, err := NewEnvelope(MsgDirectives, dir)
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
	if pol := n.up.rt.pol; !(pol.MaxAttempts < timeouts && timeouts < pol.TimeoutAttempts) {
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

// TestNodeTimeoutsBackOff: every retry waits a backoff that grows with the
// attempts made so far, receive timeouts included, so a node behind a
// slow upstream does not resend a Hello every receive timeout. time.Sleep
// never returns early, so the sum of the minimum backoffs (their
// unjittered halves) is a hard lower bound on the round trip.
func TestNodeTimeoutsBackOff(t *testing.T) {
	const timeouts = 10
	pol := &RetryPolicy{Seed: 1, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond}
	conn := &scriptedConn{sends: map[MsgKind]int{}, fails: timeouts, recvErr: errRecvTimeout{}}
	n := NewNode("n0", nil, conn)
	n.EnableResilience(pol, nil, nil)
	var floor time.Duration
	for retry := 0; retry < timeouts; retry++ {
		d := pol.BaseDelay << retry
		if d > pol.MaxDelay {
			d = pol.MaxDelay
		}
		floor += d / 2
	}

	env, err := NewEnvelope(MsgRunReport, RunReport{NodeID: n.ID})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := n.roundTrip(env); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < floor {
		t.Fatalf("%d timeouts retried in %v, under the %v their backoffs add up to", timeouts, elapsed, floor)
	}
}

// TestNodeRedialSendsOneHello: after a re-dial a node re-registers with a
// Hello, and when its request is itself a Hello (Sync, Connect) that Hello
// is the request; a second one would only add upstream work.
func TestNodeRedialSendsOneHello(t *testing.T) {
	sends := map[MsgKind]int{}
	dead := fmt.Errorf("community: recv on closed pipe")
	conn := &scriptedConn{sends: sends, fails: 1, recvErr: dead}
	dial := func() (Conn, error) { return &scriptedConn{sends: sends}, nil }
	n := NewNode("n0", nil, conn)
	reg := obs.New()
	n.EnableResilience(instantRetry(), dial, reg)
	if err := n.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("node.reconnects").Value(); got != 1 {
		t.Fatalf("node reconnected %d times, want 1", got)
	}
	if got := sends[MsgHello]; got != 2 {
		t.Fatalf("sent %d Hellos, want 2: one on the dead wire, one after the re-dial", got)
	}
}

// TestNodeKeepsNewestDirectives: a node, with or without a retry policy,
// keeps its directives when a reply carries an older sequence (an
// aggregator whose cache has not seen the node since its last flush
// answers with the empty set at sequence 0), instead of trading its
// installed repairs for the stale set.
func TestNodeKeepsNewestDirectives(t *testing.T) {
	newer := Directives{Seq: 5, Repairs: []replay.PatchSpec{{FailureID: "fail@0x400c58", PC: 0x400c58}}}
	conn := &scriptedConn{sends: map[MsgKind]int{}, dirs: []Directives{newer, {}}}
	n := NewNode("n0", nil, conn)
	for i := 0; i < 2; i++ {
		if err := n.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.Directives(); got.Seq != newer.Seq || len(got.Repairs) != 1 {
		t.Fatalf("node took the stale directives: seq %d, %d repairs; want seq %d, 1 repair",
			got.Seq, len(got.Repairs), newer.Seq)
	}
}

// evaluations counts the manager's report-application passes: one per
// applied batch that carries reports.
func evaluations(m *Manager) int64 {
	snap := m.ObsSnapshot()
	if st := snap.Stage("evaluate"); st != nil {
		return st.Spans
	}
	return 0
}

// flushFaultRig is a manager with telemetry, a resilient aggregator whose
// upstream dials go through fault (until it is cleared), and one member
// that has buffered a failing report and a learning upload at the
// aggregator.
func flushFaultRig(t *testing.T, fault func(Conn) Conn) (m *Manager, agg *Aggregator, site uint32, heal func()) {
	t.Helper()
	app := webapp.MustBuild()
	m, err := NewManager(ManagerConfig{Image: app.Image, Obs: obs.NewTracer(obs.New())})
	if err != nil {
		t.Fatal(err)
	}
	dial := func() (Conn, error) {
		upSide, mgrSide := Pipe()
		go func() { _ = m.Serve(mgrSide) }()
		if fault != nil {
			return fault(upSide), nil
		}
		return upSide, nil
	}
	up, _ := dial()
	agg, err = NewAggregator(AggregatorConfig{
		ID: "agg00", Image: app.Image, Upstream: up, Retry: instantRetry(), Redial: dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = agg.Close() })

	n := NewNode("n0", app.Image, nil)
	attachNode(t, agg, n)
	site = app.Labels["site_290162"]
	db := daikon.NewDB()
	db.Add(&daikon.Invariant{Kind: daikon.KindLowerBound, Var: daikon.VarID{PC: app.Image.Entry}, Samples: 64})
	raw, err := db.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnvelope(MsgBatch, Batch{
		NodeID:   "n0",
		Reports:  []RunReport{{NodeID: "n0", Outcome: uint8(vm.OutcomeFailure), Failure: &FailureInfo{PC: site, Monitor: "MemoryFirewall"}}},
		LearnDBs: [][]byte{raw},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.roundTrip(env); err != nil {
		t.Fatal(err)
	}
	return m, agg, site, func() { fault = nil }
}

// TestFlushPartitionStaysPending: a resilient aggregator whose every send
// in a flush fails (a partition) keeps the snapshot pending instead of
// giving up its reports, and the next flush delivers them exactly once.
func TestFlushPartitionStaysPending(t *testing.T) {
	m, agg, site, heal := flushFaultRig(t, func(c Conn) Conn {
		return &flakyConn{Conn: c, failSends: math.MaxInt}
	})
	if err := agg.Flush(); err == nil {
		t.Fatal("a flush across a partition reported success")
	}
	if got := evaluations(m); got != 0 {
		t.Fatalf("a partitioned flush reached the manager (%d evaluations)", got)
	}
	heal()
	if err := agg.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.CaseStates()[site]; !ok {
		t.Fatalf("the partitioned snapshot's report never reached the manager: %v", m.CaseStates())
	}
	if got := evaluations(m); got != 1 {
		t.Fatalf("the snapshot's reports were applied %d times, want exactly 1", got)
	}
	if got := m.Uploads(); got != 1 {
		t.Fatalf("the snapshot's upload was merged %d times, want exactly 1", got)
	}
}

// TestFlushUnansweredMergedOnce: as TestFlushPartitionStaysPending, but
// every send of the failing flush is delivered and then reported failed.
// The manager applied the snapshot on its first copy, so the copy the next
// flush re-sends is answered without being applied again.
func TestFlushUnansweredMergedOnce(t *testing.T) {
	m, agg, site, heal := flushFaultRig(t, func(c Conn) Conn {
		return &deliverThenFailConn{Conn: c, failSends: math.MaxInt}
	})
	if err := agg.Flush(); err == nil {
		t.Fatal("a flush that never got a reply reported success")
	}
	heal()
	if err := agg.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.CaseStates()[site]; !ok {
		t.Fatalf("the snapshot's report never reached the manager: %v", m.CaseStates())
	}
	if got := m.Uploads(); got != 1 {
		t.Fatalf("the snapshot's upload was merged %d times, want exactly 1", got)
	}
	if got := evaluations(m); got != 1 {
		t.Fatalf("the snapshot's reports were applied %d times, want exactly 1", got)
	}
}
