package sim

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/community"
	"repro/internal/webapp"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkReportGolden compares a campaign's SoakReport, telemetry
// stripped, with testdata/<name>.json; -update rewrites the file first.
func checkReportGolden(t *testing.T, name, entry string, rep *community.SoakReport) {
	t.Helper()
	stripped := strip(rep)
	raw, err := json.MarshalIndent(&stripped, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got := string(raw) + "\n"
	path := filepath.Join("testdata", name+".json")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s report differs from %s:\n--- got ---\n%s--- want ---\n%s", entry, path, got, want)
	}
}

// TestSoakReportGolden pins the campaign schedule itself: churn order,
// the adversary scripts, message counts and convergence rounds. The
// equivalence oracle compares the two entry points with each other, so
// a change both of them make is invisible to it; these goldens catch it.
// Every oracle shape plus TestSimChurnTransitions' campaign must match
// its golden through RunSoak and through Run.
func TestSoakReportGolden(t *testing.T) {
	app := webapp.MustBuild()
	shapes := append(oracleShapes(t, app), soakShape{"churn-18", func() community.SoakConfig {
		return churnConfig(t, app)
	}})
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			live, err := community.RunSoak(sh.conf())
			if err != nil {
				t.Fatal(err)
			}
			checkReportGolden(t, sh.name, "RunSoak", live)
			simRep, err := Run(sh.conf())
			if err != nil {
				t.Fatal(err)
			}
			checkReportGolden(t, sh.name, "Run", &simRep.SoakReport)
		})
	}
}
