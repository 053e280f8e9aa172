package community

import (
	"testing"

	"repro/internal/core"
	"repro/internal/redteam"
	"repro/internal/vm"
	"repro/internal/webapp"
)

func TestManagerRejectsUnknownMessage(t *testing.T) {
	app := webapp.MustBuild()
	m, err := NewManager(ManagerConfig{Image: app.Image})
	if err != nil {
		t.Fatal(err)
	}
	nodeSide, mgrSide := Pipe()
	done := make(chan error, 1)
	go func() { done <- m.Serve(mgrSide) }()
	if err := nodeSide.Send(Envelope{Kind: MsgAck}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("manager accepted a bogus message kind")
	}
}

func TestManagerRequiresImage(t *testing.T) {
	if _, err := NewManager(ManagerConfig{}); err == nil {
		t.Fatal("nil image accepted")
	}
}

func TestNodeReconnectKeepsShard(t *testing.T) {
	// A node that reconnects (same ID) keeps its learning assignment:
	// shard handouts are per-identity, not per-connection.
	app := webapp.MustBuild()
	m, err := NewManager(ManagerConfig{Image: app.Image, LearnShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	connect := func() *Node {
		nodeSide, mgrSide := Pipe()
		go func() { _ = m.Serve(mgrSide) }()
		n := NewNode("stable-id", app.Image, nodeSide)
		if err := n.Connect(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	n1 := connect()
	lo1 := n1.Directives().LearnLo
	_ = n1.Close()
	n2 := connect()
	if n2.Directives().LearnLo != lo1 {
		t.Errorf("shard changed across reconnect: %#x vs %#x", lo1, n2.Directives().LearnLo)
	}
}

func TestStaleReportIgnored(t *testing.T) {
	// A report carrying an old directive sequence must not advance a
	// checking campaign (the node ran without the checking patches).
	app := webapp.MustBuild()
	setupDB, _, err := core.Learn(app.Image, core.LearnConfig{
		Inputs: [][]byte{redteam.LearningCorpus()},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(ManagerConfig{
		Image: app.Image, Seed: setupDB,
		BootstrapInputs: [][]byte{redteam.LearningCorpus()},
	})
	if err != nil {
		t.Fatal(err)
	}
	var ex redteam.Exploit
	for _, e := range redteam.Exploits() {
		if e.Bugzilla == "290162" {
			ex = e
		}
	}
	site := app.Labels["site_290162"]
	failure := &FailureInfo{PC: site, Monitor: "MemoryFirewall", Stack: []uint32{}}

	// First report opens the case (any seq).
	deliverReport(t, m, RunReport{NodeID: "n", Seq: 0, Outcome: uint8(vm.OutcomeFailure), Failure: failure})
	if st := m.CaseStates()[site]; st != core.StateChecking {
		t.Fatalf("state = %v", st)
	}
	// Stale failing reports (seq 0 < the case's phase) must not count as
	// checking runs no matter how many arrive.
	for i := 0; i < 5; i++ {
		deliverReport(t, m, RunReport{NodeID: "n", Seq: 0, Outcome: uint8(vm.OutcomeFailure), Failure: failure})
	}
	if st := m.CaseStates()[site]; st != core.StateChecking {
		t.Fatalf("stale reports advanced the campaign to %v", st)
	}
	_ = ex
}

// TestAdoptedRepairDemotedCommunityWide: a community-adopted repair that
// stops working is demoted, and the demotion opens a new phase — the case
// returns to evaluation, the adoption is no longer attributed to anyone,
// and the directive sequence moves on, so a report from a run under the
// demoted repair cannot re-adopt it.
func TestAdoptedRepairDemotedCommunityWide(t *testing.T) {
	app := webapp.MustBuild()
	m, nodes := startManager(t, redTeamManagerConfig(t, app), []string{"victim"})
	victim := nodes[0]
	defer victim.Close()
	attack := redteam.AttackInput(app, exploitByID(t, "290162"), 0)
	site := app.Labels["site_290162"]
	for i := 0; i < 10 && m.CaseStates()[site] != core.StatePatched; i++ {
		if _, err := victim.RunOnce(attack); err != nil {
			t.Fatal(err)
		}
	}
	if m.Adoptions()[site] != "victim" {
		t.Fatalf("setup: case %v, adoptions %v", m.CaseStates()[site], m.Adoptions())
	}
	if err := victim.Sync(); err != nil {
		t.Fatal(err)
	}
	seq := victim.Directives().Seq

	// The failure recurs under the adopted repair.
	failure := &FailureInfo{PC: site, Monitor: "MemoryFirewall", Stack: []uint32{}}
	deliverReport(t, m, RunReport{NodeID: "victim", Seq: seq, Outcome: uint8(vm.OutcomeFailure), Failure: failure})
	if st := m.CaseStates()[site]; st != core.StateEvaluating {
		t.Fatalf("after the adopted repair failed the case is %v, want evaluating", st)
	}
	if _, ok := m.Adoptions()[site]; ok {
		t.Fatal("a demoted repair is still reported as adopted")
	}
	// A surviving run under the demoted repair's directives is stale.
	deliverReport(t, m, RunReport{NodeID: "victim", Seq: seq, Outcome: uint8(vm.OutcomeExit)})
	if st := m.CaseStates()[site]; st != core.StateEvaluating {
		t.Fatalf("a report from the demoted phase moved the case to %v", st)
	}
	if err := victim.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := victim.Directives().Seq; got <= seq {
		t.Fatalf("demotion left the directive sequence at %d (was %d)", got, seq)
	}
}

func TestLearnShardsCoverImage(t *testing.T) {
	app := webapp.MustBuild()
	m, err := NewManager(ManagerConfig{Image: app.Image, LearnShards: 3})
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi []uint32
	for _, id := range []string{"a", "b", "c"} {
		nodeSide, mgrSide := Pipe()
		go func() { _ = m.Serve(mgrSide) }()
		n := NewNode(id, app.Image, nodeSide)
		if err := n.Connect(); err != nil {
			t.Fatal(err)
		}
		d := n.Directives()
		lo = append(lo, d.LearnLo)
		hi = append(hi, d.LearnHi)
	}
	// Shards tile the code range: consecutive, starting at the base, and
	// jointly covering the end.
	if lo[0] != app.Image.Base {
		t.Errorf("first shard starts at %#x", lo[0])
	}
	for i := 1; i < 3; i++ {
		if lo[i] != hi[i-1] {
			t.Errorf("shard %d not contiguous: [%#x,%#x) after [%#x,%#x)", i, lo[i], hi[i], lo[i-1], hi[i-1])
		}
	}
	if hi[2] < app.Image.End() {
		t.Errorf("shards end at %#x, image ends at %#x", hi[2], app.Image.End())
	}
}

// deliverReport hands m one run report as a single MsgRunReport, through
// the handler every connection's envelopes take.
func deliverReport(t *testing.T, m *Manager, rep RunReport) {
	t.Helper()
	env, err := NewEnvelope(MsgRunReport, rep)
	if err != nil {
		t.Fatal(err)
	}
	bound := rep.NodeID
	if _, err := m.handle(env, &bound); err != nil {
		t.Fatal(err)
	}
}
