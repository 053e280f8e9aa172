package daikon_test

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/daikon"
	"repro/internal/redteam"
	"repro/internal/webapp"
)

// TestSortOrderMatchesIDComparator: on a database learned from the
// webapp's learning corpus, All and At list invariants in exactly the
// order the comparator that formats both IDs on every comparison gives.
func TestSortOrderMatchesIDComparator(t *testing.T) {
	app := webapp.MustBuild()
	db, _, err := core.Learn(app.Image, core.LearnConfig{Inputs: [][]byte{redteam.LearningCorpus()}})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*daikon.Invariant, 0, db.Len())
	for _, inv := range db.ByID {
		want = append(want, inv)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].ID() < want[j].ID() })
	if db.Len() < 1000 {
		t.Fatalf("learned only %d invariants", db.Len())
	}
	same := func(what string, got, want []*daikon.Invariant) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d invariants, want %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: position %d holds %s, want %s", what, i, got[i].ID(), want[i].ID())
			}
		}
	}
	same("All", db.All(), want)
	atPC := map[uint32][]*daikon.Invariant{}
	for _, inv := range want {
		if inv.Kind != daikon.KindSPOffset {
			atPC[inv.PC()] = append(atPC[inv.PC()], inv)
		}
	}
	for pc, list := range atPC {
		same("At", db.At(pc), list)
	}
}
