package redteam

import "testing"

// maxHangLoopAllocs caps one hang-loop Table 1 campaign. Its checking runs
// spin the loop to the hang budget, executing ~790k invariant checks, so a
// check path that allocates even once shows up here in the millions (5.8M
// when every check formatted its invariant ID and appended an observation);
// the allocation-free path needs ~10k for the whole campaign.
const maxHangLoopAllocs = 50_000

// TestHangLoopCampaignAllocs keeps the checking layer allocation-free on
// the campaign that prices it. Allocation counts do not depend on host
// speed, so the cap is deterministic.
func TestHangLoopCampaignAllocs(t *testing.T) {
	ex := exploitByID(t, "hang-loop")
	setup := getSetup(t, ex.NeedsExpandedCorpus)
	var res AttackResult
	allocs := testing.AllocsPerRun(1, func() {
		cv, err := setup.ClearView(ex.NeedsStackScope)
		if err != nil {
			t.Fatal(err)
		}
		res = RunSingleVariant(cv, setup.App, ex, 24)
	})
	if !res.Patched || res.Presentations != expectedPresentations["hang-loop"] {
		t.Fatalf("hang-loop: patched=%v after %d presentations, want %d",
			res.Patched, res.Presentations, expectedPresentations["hang-loop"])
	}
	if allocs > maxHangLoopAllocs {
		t.Fatalf("hang-loop campaign allocated %.0f objects, cap %d", allocs, maxHangLoopAllocs)
	}
	t.Logf("hang-loop campaign: %.0f allocations", allocs)
}
