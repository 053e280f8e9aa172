package sim

import (
	"testing"
	"time"

	"repro/internal/webapp"
)

// TestSimSoak100kNodes is the headline scale test: a simulated campaign
// at the paper's deployment scale — 100,000 modeled nodes behind 256
// aggregators with a 2% adversarial population — must converge on every
// defect, quarantine every adversary, credit quarantined nodes zero
// adoptions, and do it in well under a minute of wall clock. It also
// pins the hierarchy's envelope economics: the manager must see at
// least 5x fewer envelopes than the flat floor of one per node-round,
// because aggregators batch the population's traffic upstream.
func TestSimSoak100kNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node simulation skipped in -short")
	}
	if raceDetectorEnabled {
		t.Skip("100k-node simulation skipped under -race; the equivalence soaks cover the simulator there")
	}
	app := webapp.MustBuild()
	conf := simSoakConfig(t, app, 100_000, true)
	conf.Rounds = 8
	conf.Aggregators = 256
	conf.Adversaries = 2000
	start := time.Now()
	rep, err := Run(conf)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if !rep.Converged {
		t.Fatalf("100k-node campaign did not converge: %+v", rep.Defects)
	}
	if len(rep.Quarantined) != conf.Adversaries {
		t.Fatalf("quarantined %d of %d adversaries", len(rep.Quarantined), conf.Adversaries)
	}
	for _, id := range rep.Quarantined {
		if len(id) < 3 || id[:3] != "adv" {
			t.Fatalf("quarantined an honest node: %s", id)
		}
	}
	if rep.QuarantinedAdoptions != 0 {
		t.Fatalf("%d adoptions credited to quarantined nodes", rep.QuarantinedAdoptions)
	}
	// Envelope reduction: the flat topology's floor is one envelope per
	// node per round straight to the manager.
	flatFloor := rep.Nodes * rep.RoundsRun
	if rep.Messages*5 > flatFloor {
		t.Fatalf("manager saw %d envelopes; the hierarchy should cut the flat floor of %d by at least 5x",
			rep.Messages, flatFloor)
	}
	if elapsed > 60*time.Second {
		t.Fatalf("100k-node simulation took %v, budget is 60s", elapsed)
	}
	t.Logf("100k nodes: %d schedule steps, %v wall clock, %d envelopes at the manager (flat floor %d), %d memo hits / %d genuine runs",
		rep.Events, elapsed.Round(time.Millisecond), rep.Messages, flatFloor, rep.MemoHits, rep.GenuineRuns)
}
