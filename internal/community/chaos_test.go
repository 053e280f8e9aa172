package community

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/daikon"
	"repro/internal/obs"
	"repro/internal/redteam"
	"repro/internal/vm"
	"repro/internal/webapp"
)

// sinkConn swallows sends and never fails; it isolates a FaultConn's own
// schedule from substrate behavior.
type sinkConn struct{}

func (sinkConn) Send(Envelope) error     { return nil }
func (sinkConn) Recv() (Envelope, error) { select {} }
func (sinkConn) Close() error            { return nil }

var chaosCounterNames = []string{
	"chaos.dropped", "chaos.delayed", "chaos.duplicated",
	"chaos.disconnects", "chaos.partitioned",
}

// faultSchedule drives sends envelopes through a fresh FaultConn and
// returns the per-send fate sequence (which fault counter moved, and
// whether the send errored).
func faultSchedule(t *testing.T, conf *ChaosConfig, stream int64, sends int) []string {
	t.Helper()
	reg := obs.New()
	fc, err := NewFaultConn(sinkConn{}, conf, stream, reg)
	if err != nil {
		t.Fatal(err)
	}
	prev := make(map[string]int64, len(chaosCounterNames))
	fates := make([]string, 0, sends)
	for i := 0; i < sends; i++ {
		sendErr := fc.Send(Envelope{Kind: MsgAck})
		fate := "none"
		for _, name := range chaosCounterNames {
			if v := reg.Counter(name).Value(); v != prev[name] {
				prev[name] = v
				fate = name
			}
		}
		if sendErr != nil {
			fate += "+err"
		}
		fates = append(fates, fate)
	}
	return fates
}

// TestFaultConnDeterministicSchedule: the whole point of seeded chaos is
// reproducibility — the same (seed, stream) pair must inject the same
// fault sequence every run, and a different stream must not share it.
func TestFaultConnDeterministicSchedule(t *testing.T) {
	conf := &ChaosConfig{
		Seed: 7, Drop: 0.1, Duplicate: 0.1, Disconnect: 0.05,
		PartitionEvery: 50, PartitionLen: 5,
	}
	a := faultSchedule(t, conf, 3, 200)
	b := faultSchedule(t, conf, 3, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, stream) produced different fault schedules")
	}
	faulted := 0
	for _, f := range a {
		if f != "none" {
			faulted++
		}
	}
	if faulted == 0 {
		t.Fatal("schedule injected no faults in 200 sends")
	}
	if c := faultSchedule(t, conf, 4, 200); reflect.DeepEqual(a, c) {
		t.Fatal("distinct streams share a fault schedule")
	}
}

// TestFaultConnPartitionWindow: partition windows close the tail of each
// cycle, so a fresh connection's first sends always get through — a
// reconnecting client is never partitioned before it can re-register.
func TestFaultConnPartitionWindow(t *testing.T) {
	conf := &ChaosConfig{Seed: 1, PartitionEvery: 5, PartitionLen: 2}
	fates := faultSchedule(t, conf, 1, 10)
	for i, fate := range fates {
		inWindow := i%5 >= 3
		if inWindow && fate != "chaos.partitioned+err" {
			t.Fatalf("send %d should be partitioned, got %q", i, fate)
		}
		if !inWindow && fate != "none" {
			t.Fatalf("send %d should pass, got %q", i, fate)
		}
	}
}

// TestFaultConnRecvDropTimesOut: a receive-direction drop discards the
// delivered envelope and keeps waiting; the caller's receive timeout, not
// the wrapper, surfaces the loss.
func TestFaultConnRecvDropTimesOut(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	reg := obs.New()
	fc, err := NewFaultConn(b, &ChaosConfig{Seed: 1, Drop: 1}, 1, reg)
	if err != nil {
		t.Fatal(err)
	}
	fc.SetRecvTimeout(30 * time.Millisecond)
	if err := a.Send(Envelope{Kind: MsgAck}); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Recv(); !IsTimeout(err) {
		t.Fatalf("recv under total loss returned %v, want timeout", err)
	}
	if reg.Counter("chaos.dropped").Value() == 0 {
		t.Fatal("dropped envelope not counted")
	}
}

// TestPipeRecvDrainsAfterClose: envelopes buffered before the close must
// still be delivered — a real TCP stack hands over bytes that were in
// flight before the FIN, and the manager's last directive snapshot may be
// in that buffer.
func TestPipeRecvDrainsAfterClose(t *testing.T) {
	a, b := Pipe()
	for i := uint64(1); i <= 2; i++ {
		if err := a.Send(Envelope{Kind: MsgAck, Token: i}); err != nil {
			t.Fatal(err)
		}
	}
	_ = a.Close()
	for i := uint64(1); i <= 2; i++ {
		e, err := b.Recv()
		if err != nil {
			t.Fatalf("buffered envelope %d lost to the close: %v", i, err)
		}
		if e.Token != i {
			t.Fatalf("buffered envelopes reordered: got %d, want %d", e.Token, i)
		}
	}
	if _, err := b.Recv(); err == nil {
		t.Fatal("recv past the buffered envelopes should fail on a closed pipe")
	}
}

// TestPipeSendAfterCloseFails: a send on a closed pipe must fail every
// time, even while the buffer has room. Otherwise a request sent after a
// severed connection "succeeds" into a buffer nobody reads, and the
// resilient client surrenders it as already delivered. The peer drains
// any envelope that slips through, so the buffer never fills and each
// send is a fresh chance to slip.
func TestPipeSendAfterCloseFails(t *testing.T) {
	a, b := Pipe()
	_ = a.Close()
	slipped := 0
	for i := 0; i < 1000; i++ {
		if err := a.Send(Envelope{Kind: MsgAck}); err == nil {
			slipped++
			_, _ = b.Recv()
		}
	}
	if slipped > 0 {
		t.Fatalf("%d of 1000 sends on a closed pipe succeeded", slipped)
	}
}

// TestTCPRecvTimeoutExpires: the TCP substrate honors per-receive
// deadlines, so a resilient client waiting on a lost reply gets a timeout
// it can retry on instead of hanging forever.
func TestTCPRecvTimeoutExpires(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = c.Recv() // hold the conn open, never reply
	}()
	conn, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(RecvTimeouter).SetRecvTimeout(50 * time.Millisecond)
	start := time.Now()
	if _, err := conn.Recv(); !IsTimeout(err) {
		t.Fatalf("recv returned %v, want timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, deadline not applied", elapsed)
	}
}

// TestTCPResilientNodeSurvivesChaos is the transport satellite end to
// end: a node over real loopback TCP, its connection wrapped in an
// aggressive fault schedule, still drives the full
// protection-without-exposure flow — retrying, reconnecting (fresh TCP
// dials), and resyncing as the chaos tears its connections down.
func TestTCPResilientNodeSurvivesChaos(t *testing.T) {
	app := webapp.MustBuild()
	m, err := NewManager(redTeamManagerConfig(t, app))
	if err != nil {
		t.Fatal(err)
	}
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() { _ = m.Serve(c) }()
		}
	}()

	chaos := &ChaosConfig{
		Seed: 11, Drop: 0.1, Delay: 0.05, MaxDelay: time.Millisecond,
		Duplicate: 0.05, Disconnect: 0.05, PartitionEvery: 12, PartitionLen: 2,
	}
	reg := obs.New()
	var stream int64
	dial := func() (Conn, error) {
		c, err := Dial(l.Addr())
		if err != nil {
			return nil, err
		}
		stream++
		return NewFaultConn(c, chaos, stream, reg)
	}

	n := NewNode("tcp-victim", app.Image, nil)
	n.EnableResilience(&RetryPolicy{Seed: 11, RecvTimeout: 100 * time.Millisecond}, dial, reg)
	first, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(first); err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	ex := exploitByID(t, "290162")
	attack := redteam.AttackInput(app, ex, 0)
	patched := false
	for i := 0; i < 20 && !patched; i++ {
		res, err := n.RunOnce(attack)
		if err != nil {
			t.Fatal(err)
		}
		patched = res.Outcome == vm.OutcomeExit && res.ExitCode == 0
	}
	if !patched {
		t.Fatal("node never protected over chaotic TCP")
	}
	// Keep syncing past the patch so the schedule provably fired.
	for i := 0; i < 30; i++ {
		if err := n.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	faults := int64(0)
	for _, name := range chaosCounterNames {
		faults += reg.Counter(name).Value()
	}
	if faults == 0 {
		t.Fatal("chaos schedule injected nothing; the test proved nothing")
	}
	if reg.Counter("node.retries").Value() == 0 {
		t.Fatal("no retries despite injected faults")
	}
}

// deliverThenFailConn delivers each of the next failSends envelopes to the
// peer and then reports a send error anyway — the ambiguous mid-flush
// disconnect where the receiver applied a payload the sender believes
// lost.
type deliverThenFailConn struct {
	Conn
	failSends int
}

func (c *deliverThenFailConn) Send(e Envelope) error {
	if c.failSends > 0 {
		c.failSends--
		_ = c.Conn.Send(e)
		return fmt.Errorf("injected disconnect after delivery")
	}
	return c.Conn.Send(e)
}

// TestFlushExactlyOnceAcrossRetry: an aggregator whose flush delivers but
// then sees a dead wire re-sends the same snapshot on a fresh connection;
// the manager's FlushSeq dedupe applies it exactly once, so retried
// flushes never double-count the community's evidence.
func TestFlushExactlyOnceAcrossRetry(t *testing.T) {
	app := webapp.MustBuild()
	m, err := NewManager(ManagerConfig{Image: app.Image})
	if err != nil {
		t.Fatal(err)
	}
	dialMgr := func() (Conn, error) {
		upSide, mgrSide := Pipe()
		go func() { _ = m.Serve(mgrSide) }()
		return upSide, nil
	}
	firstUp, _ := dialMgr()
	agg, err := NewAggregator(AggregatorConfig{
		ID:       "agg00",
		Image:    app.Image,
		Upstream: &deliverThenFailConn{Conn: firstUp, failSends: 1},
		Retry:    &RetryPolicy{Seed: 1, BaseDelay: time.Microsecond},
		Redial:   dialMgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	n := NewNode("n0", app.Image, nil)
	attachNode(t, agg, n)
	db := daikon.NewDB()
	db.Add(&daikon.Invariant{
		Kind:    daikon.KindLowerBound,
		Var:     daikon.VarID{PC: app.Image.Entry},
		Bound:   0,
		Samples: 64,
	})
	raw, err := db.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnvelope(MsgLearnUpload, LearnUpload{NodeID: "n0", DB: raw})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.roundTrip(env); err != nil {
		t.Fatal(err)
	}

	// First flush: delivered, "failed", re-sent, deduped — and the retry
	// still recovers the manager's reply.
	if err := agg.Flush(); err != nil {
		t.Fatalf("retried flush failed: %v", err)
	}
	if got := m.Uploads(); got != 1 {
		t.Fatalf("manager merged %d uploads from one flush, want exactly 1", got)
	}

	// A later flush (fresh FlushSeq) still applies normally.
	if err := n.roundTrip(env); err != nil {
		t.Fatal(err)
	}
	if err := agg.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := m.Uploads(); got != 2 {
		t.Fatalf("manager merged %d uploads after second flush, want 2", got)
	}
}

// TestRootGroupFailoverContinuity: state accumulated before a root crash
// — registration, an open failure case, the replay log — survives the
// promotion, the resilient client re-dials onto the new leader, and the
// group rebuilds a replacement follower so it can take another crash.
func TestRootGroupFailoverContinuity(t *testing.T) {
	app := webapp.MustBuild()
	reg := obs.New()
	g, err := NewRootGroup(ManagerConfig{Image: app.Image}, 1, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	dial := func() (Conn, error) {
		nodeSide, rootSide := Pipe()
		go func() { _ = g.Serve(rootSide) }()
		return nodeSide, nil
	}

	n := NewNode("n0", app.Image, nil)
	n.EnableResilience(&RetryPolicy{Seed: 1, RecvTimeout: 100 * time.Millisecond}, dial, reg)
	first, _ := dial()
	if err := n.Attach(first); err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	site := app.Labels["site_290162"]
	env, err := NewEnvelope(MsgRunReport, RunReport{
		NodeID:  "n0",
		Outcome: uint8(vm.OutcomeFailure),
		Failure: &FailureInfo{PC: site, Monitor: "MemoryFirewall"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.roundTrip(env); err != nil {
		t.Fatal(err)
	}
	logAtCrash := g.LogLen()
	if logAtCrash == 0 {
		t.Fatal("accepted envelopes did not reach the replay log")
	}

	old := g.Leader()
	if err := g.FailLeader(); err != nil {
		t.Fatal(err)
	}
	promoted := g.Leader()
	if promoted == old {
		t.Fatal("failover kept the crashed leader")
	}
	if _, open := promoted.CaseStates()[site]; !open {
		t.Fatal("failure case opened before the crash lost on failover")
	}
	if got := promoted.Messages(); got != old.Messages() {
		t.Fatalf("promoted leader saw %d messages, crashed leader %d: streams diverged", got, old.Messages())
	}
	if g.Followers() != 1 {
		t.Fatalf("replication factor %d after failover, want 1 (replacement rebuilt)", g.Followers())
	}
	if got := reg.Counter("root.log_replayed").Value(); got != int64(logAtCrash) {
		t.Fatalf("replacement replayed %d entries, want %d", got, logAtCrash)
	}

	// The severed client retries, re-dials onto the promoted leader, and
	// resumes — its identity and directive state intact.
	if err := n.Sync(); err != nil {
		t.Fatalf("sync across the failover failed: %v", err)
	}
	if reg.Counter("node.reconnects").Value() == 0 {
		t.Fatal("client never reconnected; the crash severed nothing")
	}
	if reg.Counter("root.failovers").Value() != 1 {
		t.Fatal("failover not counted")
	}
}

// TestChaosSoakConverges is the robustness headline at test scale: a
// hierarchical community under the full fault schedule — drops, delays,
// duplicates, mid-flush disconnects, partitions — plus node churn AND a
// root-manager crash mid-campaign, converging with every adversary
// quarantined, and the report's fault counters proving the faults fired.
func TestChaosSoakConverges(t *testing.T) {
	app := webapp.MustBuild()
	conf := soakConfig(t, app, 24, true)
	conf.Aggregators = 3
	conf.Adversaries = 2
	conf.Rounds = 6
	conf.Chaos = DefaultChaos(1)
	conf.RootReplicas = 1
	conf.Churn = &ChurnConfig{CrashPerRound: 1, JoinPerRound: 1, RootCrashRound: 3}
	conf.Retry = &RetryPolicy{Seed: 1, RecvTimeout: 100 * time.Millisecond}

	rep, err := RunSoak(conf)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("chaos soak did not converge: %+v", rep)
	}
	if len(rep.Quarantined) != conf.Adversaries {
		t.Fatalf("quarantined %v, want all %d adversaries", rep.Quarantined, conf.Adversaries)
	}
	if rep.RootFailovers != 1 {
		t.Fatalf("root failovers %d, want 1", rep.RootFailovers)
	}
	if rep.ReplayLogEntries == 0 {
		t.Fatal("replicated root recorded no log entries")
	}
	if rep.DroppedEnvelopes == 0 {
		t.Fatal("chaos dropped nothing; the schedule never fired")
	}
	if rep.Retries == 0 || rep.Reconnects == 0 {
		t.Fatalf("faults fired but clients never retried/reconnected: %+v", rep)
	}
}
