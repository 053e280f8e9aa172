package community

import (
	"fmt"
	"testing"

	"repro/internal/redteam"
	"repro/internal/vm"
	"repro/internal/webapp"
)

// flakyConn wraps a Conn, failing the next failSends Send calls.
type flakyConn struct {
	Conn
	failSends int
}

func (c *flakyConn) Send(e Envelope) error {
	if c.failSends > 0 {
		c.failSends--
		return fmt.Errorf("transient upstream failure")
	}
	return c.Conn.Send(e)
}

// TestFlushSendFailureRestoresBuffers: a flush whose upstream Send fails
// loses nothing — the snapshot stays pending and the next flush delivers it
// — and a pending auto-flush is not skipped on the strength of the failed
// attempt's snapshot: only a DELIVERED snapshot counts as carried.
func TestFlushSendFailureRestoresBuffers(t *testing.T) {
	app := webapp.MustBuild()
	m, err := NewManager(ManagerConfig{Image: app.Image})
	if err != nil {
		t.Fatal(err)
	}
	upSide, mgrSide := Pipe()
	go func() { _ = m.Serve(mgrSide) }()
	flaky := &flakyConn{Conn: upSide, failSends: 1}
	agg, err := NewAggregator(AggregatorConfig{ID: "agg00", Image: app.Image, Upstream: flaky})
	if err != nil {
		t.Fatal(err)
	}

	n := NewNode("n0", app.Image, nil)
	attachNode(t, agg, n)
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

	if err := agg.Flush(); err == nil {
		t.Fatal("flush with a failing upstream send reported success")
	}
	if len(m.CaseStates()) != 0 {
		t.Fatalf("failed flush reached the manager: %v", m.CaseStates())
	}
	// An auto-flush for state buffered before the failed attempt (epoch 0)
	// must still run: the attempt snapshotted but delivered nothing.
	if err := agg.flushIfDue(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.CaseStates()[site]; !ok {
		t.Fatalf("pending report did not reach the manager: %v", m.CaseStates())
	}
	if got := agg.UpstreamEnvelopes(); got != 1 {
		t.Fatalf("upstream envelopes = %d, want 1 (a failed send must not count)", got)
	}
	// Once delivered, an auto-flush for state buffered before the delivery
	// is skipped — the data is already upstream.
	if err := agg.flushIfDue(0); err != nil {
		t.Fatal(err)
	}
	if got := agg.UpstreamEnvelopes(); got != 1 {
		t.Fatalf("redundant auto-flush sent an envelope: upstream = %d", got)
	}
	// The explicit heartbeat Flush still always runs.
	if err := agg.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := agg.UpstreamEnvelopes(); got != 2 {
		t.Fatalf("heartbeat flush did not run: upstream = %d", got)
	}
}

// hierSoakConfig assembles a small hierarchical soak over real Red Team
// scenarios.
func hierSoakConfig(t *testing.T, app *webapp.App, nodes, aggregators int) SoakConfig {
	t.Helper()
	conf := soakConfig(t, app, nodes, true)
	conf.Aggregators = aggregators
	return conf
}

// TestHierarchicalSoakConverges: the two-tier topology reaches the same
// community outcome as the flat star — one adopted repair per defect,
// held by every node.
func TestHierarchicalSoakConverges(t *testing.T) {
	app := webapp.MustBuild()
	rep, err := RunSoak(hierSoakConfig(t, app, 12, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("hierarchical soak did not converge: %+v", rep)
	}
	for _, d := range rep.Defects {
		if !d.Converged || d.Adopted == "" {
			t.Fatalf("defect %s did not converge: %+v", d.Label, d)
		}
		if d.Agree != rep.Nodes {
			t.Fatalf("defect %s: %d/%d nodes agree", d.Label, d.Agree, rep.Nodes)
		}
	}
}

// TestHierarchyReducesManagerEnvelopes enforces the scaling contract of
// the aggregator tier: at equal node count, the central manager handles at
// least 5x fewer envelopes than under the flat topology, because member
// syncs are served from the aggregators' directive caches and a whole
// region's round travels upstream as one compacted batch.
func TestHierarchyReducesManagerEnvelopes(t *testing.T) {
	app := webapp.MustBuild()
	flat, err := RunSoak(soakConfig(t, app, 10, true))
	if err != nil {
		t.Fatal(err)
	}
	hier, err := RunSoak(hierSoakConfig(t, app, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !flat.Converged || !hier.Converged {
		t.Fatalf("convergence: flat=%v hierarchical=%v", flat.Converged, hier.Converged)
	}
	if hier.Messages*5 > flat.Messages {
		t.Fatalf("aggregation reduced manager envelopes only %dx (%d flat vs %d hierarchical), want >=5x",
			flat.Messages/max(hier.Messages, 1), flat.Messages, hier.Messages)
	}
	t.Logf("manager envelopes: %d flat vs %d hierarchical (%.1fx)",
		flat.Messages, hier.Messages, float64(flat.Messages)/float64(hier.Messages))
}

// TestHierarchicalSoakDeterministic: identical hierarchical soaks adopt
// identical repairs in identical rounds.
func TestHierarchicalSoakDeterministic(t *testing.T) {
	app := webapp.MustBuild()
	a, err := RunSoak(hierSoakConfig(t, app, 9, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSoak(hierSoakConfig(t, app, 9, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range a.Defects {
		if d.Adopted != b.Defects[i].Adopted || d.Rounds != b.Defects[i].Rounds {
			t.Fatalf("identical soaks diverged on defect %s: %+v vs %+v", d.Label, d, b.Defects[i])
		}
	}
	if a.Messages != b.Messages {
		t.Fatalf("identical soaks cost different manager envelopes: %d vs %d", a.Messages, b.Messages)
	}
}

// TestAggregatorServesSyncsFromCache: once a region's directives are
// cached, member syncs cost the manager nothing — the property that makes
// manager load O(aggregators).
func TestAggregatorServesSyncsFromCache(t *testing.T) {
	app := webapp.MustBuild()
	m, err := NewManager(redTeamManagerConfig(t, app))
	if err != nil {
		t.Fatal(err)
	}
	upSide, mgrSide := Pipe()
	go func() { _ = m.Serve(mgrSide) }()
	agg, err := NewAggregator(AggregatorConfig{ID: "agg00", Image: app.Image, Upstream: upSide})
	if err != nil {
		t.Fatal(err)
	}
	attachTo := func(id string) *Node {
		nodeSide, aggSide := Pipe()
		go func() { _ = agg.Serve(aggSide) }()
		n := NewNode(id, app.Image, nil)
		if err := n.Attach(nodeSide); err != nil {
			t.Fatal(err)
		}
		return n
	}
	n1 := attachTo("n1")
	n2 := attachTo("n2")
	if err := agg.Flush(); err != nil {
		t.Fatal(err)
	}
	before := m.Messages()
	for i := 0; i < 10; i++ {
		if err := n1.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := n2.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Messages(); got != before {
		t.Fatalf("20 member syncs cost the manager %d envelopes, want 0", got-before)
	}
	members := agg.Members()
	if len(members) != 2 || members[0] != "n1" || members[1] != "n2" {
		t.Fatalf("members = %v", members)
	}
}

// TestAggregatorHeartbeatFlushBeforeMembers: a flush with no members ever
// seen still round-trips — it is the region's heartbeat, and it must
// count as a flush so the mid-campaign-join registration path arms before
// the first member arrives.
func TestAggregatorHeartbeatFlushBeforeMembers(t *testing.T) {
	app := webapp.MustBuild()
	m, err := NewManager(ManagerConfig{Image: app.Image})
	if err != nil {
		t.Fatal(err)
	}
	upSide, mgrSide := Pipe()
	go func() { _ = m.Serve(mgrSide) }()
	agg, err := NewAggregator(AggregatorConfig{ID: "agg00", Image: app.Image, Upstream: upSide})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := agg.Flush(); err != nil {
			t.Fatalf("empty heartbeat flush %d: %v", i, err)
		}
		if agg.Flushes() != i {
			t.Fatalf("flushes = %d, want %d", agg.Flushes(), i)
		}
	}
}

// TestAggregatorAutoFlush: the FlushEvery threshold forwards a compacted
// batch without an explicit Flush call.
func TestAggregatorAutoFlush(t *testing.T) {
	app := webapp.MustBuild()
	m, err := NewManager(redTeamManagerConfig(t, app))
	if err != nil {
		t.Fatal(err)
	}
	upSide, mgrSide := Pipe()
	go func() { _ = m.Serve(mgrSide) }()
	agg, err := NewAggregator(AggregatorConfig{
		ID: "agg00", Image: app.Image, Upstream: upSide, FlushEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodeSide, aggSide := Pipe()
	go func() { _ = agg.Serve(aggSide) }()
	n := NewNode("n0", app.Image, nil)
	if err := n.Attach(nodeSide); err != nil {
		t.Fatal(err)
	}
	benign := redteam.EvaluationPages()[0]
	for i := 0; i < 3; i++ {
		if agg.Flushes() != 0 {
			t.Fatalf("flushed after %d reports, threshold 3", i)
		}
		if _, err := n.RunOnce(benign); err != nil {
			t.Fatal(err)
		}
	}
	if agg.Flushes() != 1 {
		t.Fatalf("flushes = %d after 3 reports, want 1", agg.Flushes())
	}
}
