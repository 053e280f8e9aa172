package perfvc

import (
	"strings"
	"testing"
)

// testSuite is a minimal registry for comparator tests: a steady
// microbenchmark gated on time + allocs, a throughput benchmark gated on
// a higher-is-better rate, and a noisy end-to-end benchmark.
func testSuite() *Suite {
	return &Suite{Entries: []Entry{
		{Name: "BenchmarkSteady", Package: ".", Class: ClassSteady, Gate: []string{"ns/op", "allocs/op"}},
		{Name: "BenchmarkRate", Package: ".", Class: ClassSteady, Gate: []string{"MIPS"}},
		{Name: "BenchmarkNoisy", Package: ".", Class: ClassNoisy},
	}}
}

// stat builds a Stat from explicit median/min/max.
func stat(median, min, max float64, samples int) Stat {
	return Stat{Median: median, Min: min, Max: max, Samples: samples}
}

// profileOf builds a profile from name → unit → Stat.
func profileOf(benches map[string]map[string]Stat) *Profile {
	p := &Profile{Benchmarks: map[string]Bench{}}
	for name, metrics := range benches {
		p.Benchmarks[name] = Bench{Package: ".", Entry: name, Metrics: metrics}
	}
	return p
}

// TestComparatorVerdicts is the table-driven sweep over every verdict
// the comparator can produce, including the spread-aware and zero-spread
// noise rules and integer allocs/op gating.
func TestComparatorVerdicts(t *testing.T) {
	cases := []struct {
		name    string
		bench   string
		base    map[string]Stat
		cand    map[string]Stat
		floor   float64
		verdict Verdict
		metric  string // worst metric expected, "" = don't care
	}{
		{
			name:  "clear regression outside tolerance and spread",
			bench: "BenchmarkSteady",
			base:  map[string]Stat{"ns/op": stat(100, 98, 102, 5)},
			cand:  map[string]Stat{"ns/op": stat(300, 290, 310, 5)},
			// slack = max(0.25*100, 4) = 25; 300 > 102+25.
			verdict: VerdictRegression, metric: "ns/op",
		},
		{
			name:    "clear improvement",
			bench:   "BenchmarkSteady",
			base:    map[string]Stat{"ns/op": stat(100, 98, 102, 5)},
			cand:    map[string]Stat{"ns/op": stat(40, 39, 41, 5)},
			verdict: VerdictImprovement, metric: "ns/op",
		},
		{
			name:  "inside baseline spread stays within noise",
			bench: "BenchmarkSteady",
			// A wildly noisy baseline (spread 60 > 25% tolerance): a
			// candidate median above max but inside max+spread is noise.
			base:    map[string]Stat{"ns/op": stat(100, 70, 130, 5)},
			cand:    map[string]Stat{"ns/op": stat(170, 165, 175, 5)},
			verdict: VerdictWithinNoise,
		},
		{
			name:  "beyond even the observed spread regresses",
			bench: "BenchmarkSteady",
			base:  map[string]Stat{"ns/op": stat(100, 70, 130, 5)},
			// slack = max(25, 60) = 60; 195 > 130+60.
			cand:    map[string]Stat{"ns/op": stat(195, 190, 200, 5)},
			verdict: VerdictRegression, metric: "ns/op",
		},
		{
			name:  "zero-spread baseline uses pure relative tolerance",
			bench: "BenchmarkSteady",
			base:  map[string]Stat{"ns/op": stat(100, 100, 100, 3)},
			// slack = max(25, 0) = 25; 120 <= 125 stays in noise.
			cand:    map[string]Stat{"ns/op": stat(120, 120, 120, 3)},
			verdict: VerdictWithinNoise,
		},
		{
			name:    "zero-spread baseline still catches a real slip",
			bench:   "BenchmarkSteady",
			base:    map[string]Stat{"ns/op": stat(100, 100, 100, 3)},
			cand:    map[string]Stat{"ns/op": stat(130, 130, 130, 3)},
			verdict: VerdictRegression, metric: "ns/op",
		},
		{
			name:  "integer allocs from zero regress on any increase",
			bench: "BenchmarkSteady",
			base: map[string]Stat{
				"ns/op":     stat(100, 98, 102, 5),
				"allocs/op": stat(0, 0, 0, 5),
			},
			cand: map[string]Stat{
				"ns/op":     stat(101, 100, 103, 5),
				"allocs/op": stat(1, 1, 1, 5),
			},
			// tolerance*0 = 0 and spread = 0: the PR 3 zero-alloc hot
			// loop may not grow a single allocation.
			verdict: VerdictRegression, metric: "allocs/op",
		},
		{
			name:  "integer allocs within tolerance stay noise",
			bench: "BenchmarkSteady",
			base: map[string]Stat{
				"ns/op":     stat(100, 98, 102, 5),
				"allocs/op": stat(9, 9, 9, 5),
			},
			cand: map[string]Stat{
				"ns/op":     stat(101, 100, 103, 5),
				"allocs/op": stat(10, 10, 10, 5),
			},
			// slack = 0.25*9 = 2.25; 10 <= 11.25.
			verdict: VerdictWithinNoise,
		},
		{
			name:    "higher-is-better rate regresses downward",
			bench:   "BenchmarkRate",
			base:    map[string]Stat{"MIPS": stat(110, 105, 116, 5)},
			cand:    map[string]Stat{"MIPS": stat(40, 38, 42, 5)},
			verdict: VerdictRegression, metric: "MIPS",
		},
		{
			name:    "higher-is-better rate improves upward",
			bench:   "BenchmarkRate",
			base:    map[string]Stat{"MIPS": stat(110, 105, 116, 5)},
			cand:    map[string]Stat{"MIPS": stat(500, 490, 510, 5)},
			verdict: VerdictImprovement, metric: "MIPS",
		},
		{
			name:  "noisy class tolerates what steady would not",
			bench: "BenchmarkNoisy",
			base:  map[string]Stat{"ns/op": stat(100, 98, 102, 3)},
			// slack = 0.75*100 = 75; 160 <= 102+75.
			cand:    map[string]Stat{"ns/op": stat(160, 150, 170, 3)},
			verdict: VerdictWithinNoise,
		},
		{
			name:    "tolerance floor loosens a steady gate for CI",
			bench:   "BenchmarkSteady",
			base:    map[string]Stat{"ns/op": stat(100, 98, 102, 3)},
			cand:    map[string]Stat{"ns/op": stat(160, 150, 170, 3)},
			floor:   0.75,
			verdict: VerdictWithinNoise,
		},
		{
			name:    "unregistered benchmark defaults to noisy ns/op gate",
			bench:   "BenchmarkUnknown",
			base:    map[string]Stat{"ns/op": stat(100, 99, 101, 3)},
			cand:    map[string]Stat{"ns/op": stat(400, 390, 410, 3)},
			verdict: VerdictRegression, metric: "ns/op",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := profileOf(map[string]map[string]Stat{tc.bench: tc.base})
			cand := profileOf(map[string]map[string]Stat{tc.bench: tc.cand})
			rep := Compare(base, cand, Options{Suite: testSuite(), ToleranceFloor: tc.floor})
			if len(rep.Deltas) != 1 {
				t.Fatalf("got %d deltas, want 1", len(rep.Deltas))
			}
			d := rep.Deltas[0]
			if d.Verdict != tc.verdict {
				t.Fatalf("verdict = %s (worst %+v), want %s", d.Verdict, d.Worst, tc.verdict)
			}
			if tc.metric != "" && d.Worst.Metric != tc.metric {
				t.Errorf("worst metric = %s, want %s", d.Worst.Metric, tc.metric)
			}
		})
	}
}

// TestCompareNewRemovedAndScope covers the coverage-change verdicts: a
// benchmark only in the candidate is new, only in the baseline is
// removed — unless the candidate run's scope never attempted its entry
// (a short CI suite is not a deletion). A baseline benchmark whose entry
// left the registry was deleted, so it is removed under any scope.
func TestCompareNewRemovedAndScope(t *testing.T) {
	base := profileOf(map[string]map[string]Stat{
		"BenchmarkSteady":       {"ns/op": stat(100, 99, 101, 3)},
		"BenchmarkNoisy":        {"ns/op": stat(500, 490, 510, 3)},
		"BenchmarkNoisy/subarm": {"ns/op": stat(100, 95, 105, 3)},
		"BenchmarkRetired/arm":  {"ns/op": stat(100, 95, 105, 3)},
	})
	cand := profileOf(map[string]map[string]Stat{
		"BenchmarkSteady": {"ns/op": stat(100, 99, 101, 3)},
		"BenchmarkRate":   {"MIPS": stat(100, 99, 101, 3)},
	})

	rep := Compare(base, cand, Options{Suite: testSuite()})
	if rep.New != 1 || rep.Removed != 3 {
		t.Fatalf("full scope: new=%d removed=%d, want 1/3", rep.New, rep.Removed)
	}

	// Scoped to only the entries the candidate actually ran: the absent
	// BenchmarkNoisy (and its sub-benchmark) is not "removed", but the
	// unregistered BenchmarkRetired is.
	rep = Compare(base, cand, Options{
		Suite: testSuite(),
		Scope: map[string]bool{"BenchmarkSteady": true, "BenchmarkRate": true},
	})
	if rep.New != 1 || rep.Removed != 1 {
		t.Fatalf("scoped: new=%d removed=%d, want 1/1", rep.New, rep.Removed)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("coverage changes alone must not gate: %v", err)
	}
}

// TestCompareRankingAndErr pins the ranked table order (regressions
// first, worst ratio first) and the gate error naming every offender.
func TestCompareRankingAndErr(t *testing.T) {
	base := profileOf(map[string]map[string]Stat{
		"BenchmarkSteady":  {"ns/op": stat(100, 99, 101, 3)},
		"BenchmarkRate":    {"MIPS": stat(100, 99, 101, 3)},
		"BenchmarkNoisy":   {"ns/op": stat(100, 99, 101, 3)},
		"BenchmarkUnknown": {"ns/op": stat(100, 99, 101, 3)},
	})
	cand := profileOf(map[string]map[string]Stat{
		"BenchmarkSteady":  {"ns/op": stat(200, 199, 201, 3)}, // 2.00x worse
		"BenchmarkRate":    {"MIPS": stat(20, 19, 21, 3)},     // 5.00x worse
		"BenchmarkNoisy":   {"ns/op": stat(101, 100, 102, 3)}, // noise
		"BenchmarkUnknown": {"ns/op": stat(10, 9, 11, 3)},     // improvement
	})
	rep := Compare(base, cand, Options{Suite: testSuite()})
	if rep.Regressions != 2 || rep.Improvements != 1 || rep.WithinNoise != 1 {
		t.Fatalf("counts = %d/%d/%d", rep.Regressions, rep.Improvements, rep.WithinNoise)
	}
	if rep.Deltas[0].Name != "BenchmarkRate" || rep.Deltas[1].Name != "BenchmarkSteady" {
		t.Errorf("ranking = %s, %s; want worst regression first",
			rep.Deltas[0].Name, rep.Deltas[1].Name)
	}
	err := rep.Err()
	if err == nil {
		t.Fatal("regressions must gate")
	}
	for _, name := range []string{"BenchmarkRate", "BenchmarkSteady"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("gate error does not name %s: %v", name, err)
		}
	}
	table := rep.Table()
	for _, want := range []string{"regression", "improvement", "within-noise", "BenchmarkRate", "2 regression(s)"} {
		if !strings.Contains(table, want) {
			t.Errorf("verdict table missing %q:\n%s", want, table)
		}
	}
}

// TestCompareIdenticalProfiles pins the reflexive case the CI self-test
// relies on: a profile against itself has no verdict but within-noise.
func TestCompareIdenticalProfiles(t *testing.T) {
	p := profileOf(map[string]map[string]Stat{
		"BenchmarkSteady": {"ns/op": stat(100, 99, 101, 3), "allocs/op": stat(0, 0, 0, 3)},
		"BenchmarkRate":   {"MIPS": stat(100, 99, 101, 3)},
		"BenchmarkNoisy":  {"ns/op": stat(500, 400, 600, 3)},
	})
	rep := Compare(p, p, Options{Suite: testSuite()})
	if rep.Regressions != 0 || rep.Improvements != 0 || rep.New != 0 || rep.Removed != 0 {
		t.Fatalf("self-comparison produced verdicts: %+v", rep)
	}
	if rep.WithinNoise != 3 {
		t.Fatalf("within-noise = %d, want 3", rep.WithinNoise)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}
