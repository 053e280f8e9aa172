package community

import (
	"strings"
	"testing"

	"repro/internal/correlate"
	"repro/internal/redteam"
	"repro/internal/vm"
	"repro/internal/webapp"
)

// TestObservationFloodQuarantines: an honest node folds each run's checks
// to at most two observations per (case, invariant). A report that floods
// one issued invariant with more — every observation otherwise well formed
// — quarantines its sender under VetReports, while a report carrying the
// largest honest fold, [violated, last], is accepted.
func TestObservationFloodQuarantines(t *testing.T) {
	app := webapp.MustBuild()
	mc := redTeamManagerConfig(t, app)
	mc.VetReports = true
	m, nodes := startManager(t, mc, []string{"victim", "flooder", "folder"})
	victim, flooder, folder := nodes[0], nodes[1], nodes[2]

	attack := redteam.AttackInput(app, exploitByID(t, "290162"), 0)
	if _, err := victim.RunOnce(attack); err != nil {
		t.Fatal(err)
	}
	// Both peers sync the checking directives through an honest run.
	benign := redteam.Input(redteam.EvaluationPages()[0])
	for _, n := range []*Node{flooder, folder} {
		if _, err := n.RunOnce(benign); err != nil {
			t.Fatal(err)
		}
	}
	if len(flooder.dir.Checks) == 0 {
		t.Fatal("no checks issued for the open case")
	}
	spec := flooder.dir.Checks[0]
	send := func(n *Node, outcomes ...bool) {
		t.Helper()
		rep := RunReport{NodeID: n.ID, Seq: n.dir.Seq, Outcome: uint8(vm.OutcomeExit)}
		for _, sat := range outcomes {
			rep.Observations = append(rep.Observations, correlate.Observation{
				InvID: spec.Invariant.ID(), FailureID: spec.FailureID, Satisfied: sat,
			})
		}
		env, err := NewEnvelope(MsgRunReport, rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.roundTrip(env); err != nil {
			t.Fatal(err)
		}
	}
	send(folder, false, true)
	send(flooder, true, true, true)

	q := m.Quarantined()
	if reason := q["flooder"]; !strings.Contains(reason, "more than 2 observations") {
		t.Fatalf("flooder quarantine reason = %q", reason)
	}
	for _, id := range []string{"victim", "folder"} {
		if reason, bad := q[id]; bad {
			t.Fatalf("honest %s quarantined: %s", id, reason)
		}
	}
}
