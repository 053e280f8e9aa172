package community

import (
	"testing"

	"repro/internal/redteam"
	"repro/internal/webapp"
)

// soakConfig assembles a small soak over real Red Team scenarios.
func soakConfig(t testing.TB, app *webapp.App, nodes int, batched bool) SoakConfig {
	t.Helper()
	mc := redTeamManagerConfig(t, app)
	var attacks []SoakAttack
	// Two paper defects plus two extended failure classes (FaultGuard's
	// divide-by-zero and HangGuard's runaway loop) so every soak shape —
	// including the 1,000-node churn/adversary headline — carries the new
	// detector families.
	for _, id := range []string{"290162", "312278", "div-zero", "hang-loop"} {
		ex := exploitByID(t, id)
		attacks = append(attacks, SoakAttack{
			Label: ex.Bugzilla, Input: redteam.AttackInput(app, ex, 0),
		})
	}
	return SoakConfig{
		Image:           mc.Image,
		Seed:            mc.Seed,
		BootstrapInputs: mc.BootstrapInputs,
		Nodes:           nodes,
		Rounds:          6,
		Attacks:         attacks,
		Benign:          redteam.EvaluationPages()[:3],
		Batched:         batched,
	}
}

func TestSoakConvergesBatched(t *testing.T) {
	app := webapp.MustBuild()
	rep, err := RunSoak(soakConfig(t, app, 8, true))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("soak did not converge: %+v", rep)
	}
	if rep.Batches == 0 {
		t.Fatal("batched soak sent no MsgBatch envelopes")
	}
	for _, d := range rep.Defects {
		if !d.Converged || d.Adopted == "" {
			t.Fatalf("defect %s did not converge: %+v", d.Label, d)
		}
		if d.Agree != rep.Nodes {
			t.Fatalf("defect %s: %d/%d nodes agree", d.Label, d.Agree, rep.Nodes)
		}
		if d.Rounds < 1 || d.Rounds > rep.RoundsRun {
			t.Fatalf("defect %s converged at impossible round %d", d.Label, d.Rounds)
		}
	}
}

// TestSoakBatchedMatchesPerMessage: both shipping modes must converge
// (which exact surviving candidate is adopted may differ — §3 adopts
// whichever survivor reports first, and message interleaving differs by
// design), each mode must be deterministic run-to-run, and batching must
// cost the manager far fewer envelopes.
func TestSoakBatchedMatchesPerMessage(t *testing.T) {
	app := webapp.MustBuild()
	batched, err := RunSoak(soakConfig(t, app, 6, true))
	if err != nil {
		t.Fatal(err)
	}
	batchedAgain, err := RunSoak(soakConfig(t, app, 6, true))
	if err != nil {
		t.Fatal(err)
	}
	perMsg, err := RunSoak(soakConfig(t, app, 6, false))
	if err != nil {
		t.Fatal(err)
	}
	if !batched.Converged || !perMsg.Converged {
		t.Fatalf("convergence: batched=%v per-message=%v", batched.Converged, perMsg.Converged)
	}
	for i, d := range batched.Defects {
		if d.Adopted != batchedAgain.Defects[i].Adopted || d.Rounds != batchedAgain.Defects[i].Rounds {
			t.Fatalf("identical soaks diverged on defect %s: %+v vs %+v",
				d.Label, d, batchedAgain.Defects[i])
		}
		if perMsg.Defects[i].Adopted == "" {
			t.Fatalf("per-message soak adopted nothing for defect %s", d.Label)
		}
	}
	if batched.Messages >= perMsg.Messages {
		t.Fatalf("batching did not reduce manager messages: %d batched vs %d per-message",
			batched.Messages, perMsg.Messages)
	}
	t.Logf("manager messages: %d batched (%d batches) vs %d per-message",
		batched.Messages, batched.Batches, perMsg.Messages)
}

// TestBatchRecordingDedup: a batch carrying several recordings of the
// same failure location must trigger the replay fast path once, not once
// per recording — the O(batches) manager-cost guarantee.
func TestBatchRecordingDedup(t *testing.T) {
	app := webapp.MustBuild()
	attack := redteam.AttackInput(app, exploitByID(t, "290162"), 0)

	runs := func(inputs [][]byte) int {
		mc := redTeamManagerConfig(t, app)
		mc.ReplayWorkers = -1
		m, nodes := startManager(t, mc, []string{"n0"})
		n := nodes[0]
		n.RecordFailures = true
		if _, err := n.RunBatch(inputs); err != nil {
			t.Fatal(err)
		}
		return m.ReplayRuns()
	}

	single := runs([][]byte{attack})
	double := runs([][]byte{attack, attack})
	if single == 0 {
		t.Fatal("fast path never ran")
	}
	if double != single {
		t.Fatalf("duplicate recordings in one batch cost %d replays, single cost %d", double, single)
	}
}

// TestDirectivesDecodeFresh is the regression test for a wire bug: gob
// merges into existing structures (zero fields are omitted on the wire
// and keep their previous bytes on decode), so decoding every directives
// reply into the same struct let stale check specs from an earlier phase
// corrupt later ones — surfacing as duplicate patch IDs once three or
// more failure cases had cycled through checking. A node must survive a
// long multi-defect per-message sequence with clean directives
// throughout.
func TestDirectivesDecodeFresh(t *testing.T) {
	app := webapp.MustBuild()
	mc := redTeamManagerConfig(t, app)
	mc.ReplayWorkers = -1
	_, nodes := startManager(t, mc, []string{"n0"})
	n := nodes[0]
	n.RecordFailures = true
	for round := 0; round < 2; round++ {
		for _, id := range []string{"269095", "290162", "295854", "312278", "320182"} {
			if _, err := n.RunOnce(redteam.AttackInput(app, exploitByID(t, id), 0)); err != nil {
				t.Fatalf("round %d exploit %s: %v", round+1, id, err)
			}
			seen := map[string]bool{}
			for i := range n.dir.Checks {
				key := n.dir.Checks[i].FailureID + "/" + n.dir.Checks[i].Invariant.ID()
				if seen[key] {
					t.Fatalf("duplicate check directive %s", key)
				}
				seen[key] = true
			}
		}
	}
}

// TestSoakValidation: config errors are reported, not panicked on.
func TestSoakValidation(t *testing.T) {
	if _, err := RunSoak(SoakConfig{}); err == nil {
		t.Fatal("nil image accepted")
	}
	app := webapp.MustBuild()
	if _, err := RunSoak(SoakConfig{Image: app.Image}); err == nil {
		t.Fatal("empty attack set accepted")
	}
	// A benign input is not an attack: the probe must reject it.
	if _, err := RunSoak(SoakConfig{
		Image:   app.Image,
		Attacks: []SoakAttack{{Label: "benign", Input: redteam.EvaluationPages()[0]}},
	}); err == nil {
		t.Fatal("non-failing attack accepted")
	}
}
