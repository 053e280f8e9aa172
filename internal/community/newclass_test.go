package community

import (
	"testing"

	"repro/internal/redteam"
	"repro/internal/vm"
	"repro/internal/webapp"
)

// TestNewClassProtectionWithoutExposure runs the §3 community story for
// the extended failure classes (divide-by-zero, unaligned access, runaway
// loop): a victim absorbs the attack until the community adopts a repair,
// and a member that was never attacked survives its first contact — the
// adopted patch crossed the community, not just the victim.
func TestNewClassProtectionWithoutExposure(t *testing.T) {
	app := webapp.MustBuild()
	conf := redTeamManagerConfig(t, app)
	for _, ex := range redteam.NewClassExploits() {
		ex := ex
		t.Run(ex.Bugzilla, func(t *testing.T) {
			_, nodes := startManager(t, conf, []string{"victim", "fresh"})
			victim, fresh := nodes[0], nodes[1]
			attack := redteam.AttackInput(app, ex, 0)

			patched := false
			for i := 0; i < 10 && !patched; i++ {
				res, err := victim.RunOnce(attack)
				if err != nil {
					t.Fatal(err)
				}
				patched = res.Outcome == vm.OutcomeExit && res.ExitCode == 0
			}
			if !patched {
				t.Fatalf("%s: victim never survived", ex.Bugzilla)
			}
			res, err := fresh.RunOnce(attack)
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome != vm.OutcomeExit || res.ExitCode != 0 {
				t.Fatalf("%s: unexposed member not immune on first contact: %+v", ex.Bugzilla, res)
			}
		})
	}
}

// TestNewClassSoakConverges: a small batched soak whose attack mix is
// exactly the three extended failure classes must converge every node
// onto one adopted repair per defect, with the manager's replay fast path
// doing the checking and ranking offline.
func TestNewClassSoakConverges(t *testing.T) {
	app := webapp.MustBuild()
	mc := redTeamManagerConfig(t, app)
	var attacks []SoakAttack
	for _, ex := range redteam.NewClassExploits() {
		attacks = append(attacks, SoakAttack{
			Label: ex.Bugzilla, Input: redteam.AttackInput(app, ex, 0),
		})
	}
	rep, err := RunSoak(SoakConfig{
		Image:           mc.Image,
		Seed:            mc.Seed,
		BootstrapInputs: mc.BootstrapInputs,
		Nodes:           6,
		Rounds:          6,
		Attacks:         attacks,
		Benign:          redteam.EvaluationPages()[:2],
		Batched:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("soak over the new classes did not converge: %+v", rep)
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

// TestUnknownMonitorReportRejected: the static report sanity check must
// reject a failure report naming a monitor no deployed detector produces
// — such a claim can never be vetted by replay and would otherwise open
// an unvettable failure case.
func TestUnknownMonitorReportRejected(t *testing.T) {
	app := webapp.MustBuild()
	conf := redTeamManagerConfig(t, app)
	conf.VetReports = true
	m, err := NewManager(conf)
	if err != nil {
		t.Fatal(err)
	}
	site := app.Labels["site_290162"]
	deliverReport(t, m, RunReport{
		NodeID: "liar", Seq: 0, Outcome: uint8(vm.OutcomeFailure),
		Failure: &FailureInfo{PC: site, Monitor: "TotallyRealGuard"},
	})
	if n := len(m.CaseStates()); n != 0 {
		t.Fatalf("fabricated-monitor report opened %d cases", n)
	}
	// The same report under a deployed detector's name is accepted.
	m2, err := NewManager(conf)
	if err != nil {
		t.Fatal(err)
	}
	deliverReport(t, m2, RunReport{
		NodeID: "honest", Seq: 0, Outcome: uint8(vm.OutcomeFailure),
		Failure: &FailureInfo{PC: site, Monitor: "MemoryFirewall", Stack: []uint32{}},
	})
	if n := len(m2.CaseStates()); n != 1 {
		t.Fatalf("legitimate report opened %d cases, want 1", n)
	}
}
