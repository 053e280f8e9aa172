package community

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/redteam"
	"repro/internal/vm"
	"repro/internal/webapp"
)

// TestConcurrentAttachDuringFlushRace pins the PR-4 aggregator lock split
// (flush snapshots and upstream round trips outside a.mu; sender
// binding per connection) against regression: a region of nodes re-homes
// onto a sibling aggregator *while* both aggregators are flushing
// concurrently and the re-homed nodes immediately resume presentations.
// Under -race this exercises Serve/buffer vs. takeLocked vs.
// Attach-driven registration flushes on live goroutines; under the normal
// build it doubles as a churn-storm convergence test — after the storm the
// community still converges, every re-homed node ends up protected, and no
// honest node was quarantined at either tier.
func TestConcurrentAttachDuringFlushRace(t *testing.T) {
	app := webapp.MustBuild()
	m, aggs := twoAggRig(t, redTeamManagerConfig(t, app))
	ex := exploitByID(t, "290162")
	attack := redteam.AttackInput(app, ex, 0)

	const nNodes = 8
	nodes := make([]*Node, nNodes)
	for i := range nodes {
		nodes[i] = NewNode("node"+string(rune('a'+i)), app.Image, nil)
		nodes[i].RecordFailures = i == 0
		attachNode(t, aggs[0], nodes[i])
	}
	// Seed the campaign: one detected presentation per node, buffered on
	// aggregator 0 but not yet flushed — the storm below flushes it.
	for _, n := range nodes {
		if _, err := n.RunOnce(attack); err != nil {
			t.Fatal(err)
		}
	}

	// The storm: both aggregators flush repeatedly while every node
	// re-homes to aggregator 1 and immediately presents again.
	var wg sync.WaitGroup
	for _, agg := range aggs {
		agg := agg
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if err := agg.Flush(); err != nil {
					t.Errorf("flush: %v", err)
					return
				}
			}
		}()
	}
	for _, n := range nodes {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			nodeSide, aggSide := Pipe()
			go func() { _ = aggs[1].Serve(aggSide) }()
			if err := n.Attach(nodeSide); err != nil {
				t.Errorf("attach: %v", err)
				return
			}
			if _, err := n.RunOnce(attack); err != nil {
				t.Errorf("post-attach run: %v", err)
			}
		}()
	}
	wg.Wait()

	// After the storm the ordinary lock-step protocol must still converge.
	patched := false
	for round := 0; round < 8 && !patched; round++ {
		for _, n := range nodes {
			res, err := n.RunOnce(attack)
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome == vm.OutcomeExit && res.ExitCode == 0 {
				patched = true
			}
		}
		if err := aggs[1].Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if !patched {
		t.Fatal("community never converged after the attach/flush storm")
	}
	if st := m.CaseStates()[app.Labels["site_290162"]]; st != core.StatePatched {
		t.Fatalf("manager case state = %v", st)
	}
	// Every re-homed node holds the repair on its next sync.
	for _, n := range nodes {
		if err := n.Sync(); err != nil {
			t.Fatal(err)
		}
		res, err := n.RunOnce(attack)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != vm.OutcomeExit || res.ExitCode != 0 {
			t.Fatalf("node %s unprotected after the storm: %+v", n.ID, res)
		}
	}
	// Honest traffic only: nothing was quarantined at either tier.
	for _, agg := range aggs {
		if q := agg.QuarantinedNodes(); len(q) != 0 {
			t.Fatalf("aggregator quarantined honest nodes: %v", q)
		}
	}
}
