package redteam

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/daikon"
	"repro/internal/repair"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/webapp"
)

// learnCase is one learning campaign whose database content is pinned.
type learnCase struct {
	name string
	conf func(app *webapp.App) core.LearnConfig
}

// learnCases are the campaigns the content golden pins: both corpora, a
// §3.1 community shard (tracing through Filter), the Table 2 evaluation
// pages learned twice over, and a mixed corpus whose attack inputs crash
// or fail, so the recorder's discard path runs between committed runs.
func learnCases() []learnCase {
	pages := func(n int) [][]byte {
		var out [][]byte
		for _, p := range EvaluationPages()[:n] {
			out = append(out, Input(p))
		}
		return out
	}
	return []learnCase{
		{"learning-corpus", func(*webapp.App) core.LearnConfig {
			return core.LearnConfig{Inputs: [][]byte{LearningCorpus()}}
		}},
		{"expanded-corpus", func(*webapp.App) core.LearnConfig {
			return core.LearnConfig{Inputs: [][]byte{ExpandedCorpus()}}
		}},
		{"community-shard", func(app *webapp.App) core.LearnConfig {
			// Shard 1 of 4, computed as the community manager assigns
			// LearnLo/LearnHi.
			const shards, shard = 4, 1
			span := (uint32(len(app.Image.Code)) + shards - 1) / shards
			lo := app.Image.Base + span*shard
			hi := lo + span
			return core.LearnConfig{
				Inputs: [][]byte{LearningCorpus()},
				Filter: func(pc uint32) bool { return pc >= lo && pc < hi },
			}
		}},
		{"evaluation-pages-x2", func(*webapp.App) core.LearnConfig {
			return core.LearnConfig{Inputs: pages(len(EvaluationPages())), Repeat: 2}
		}},
		{"mixed-attacks", func(app *webapp.App) core.LearnConfig {
			exploits := AllExploits()
			ps := pages(len(exploits) + 1)
			var inputs [][]byte
			for i, ex := range exploits {
				inputs = append(inputs, ps[i], AttackInput(app, ex, 0))
			}
			inputs = append(inputs, ps[len(exploits)])
			return core.LearnConfig{Inputs: inputs, MaxSteps: 1_000_000}
		}},
	}
}

// dumpDB renders a learned database as the golden records it: a header
// with the run and content counts and a SHA-256 over every invariant's
// ID, kind, values, bound, Var2 and samples and over the sorted VarsSeen,
// then one line per invariant in ID order.
func dumpDB(name string, db *daikon.DB, stats core.LearnStats) (header string, lines []string) {
	h := sha256.New()
	for _, inv := range db.All() {
		line := fmt.Sprintf("%s %s %v %d %s %d", inv.ID(), inv.Kind, inv.Values, inv.Bound, inv.Var2, inv.Samples)
		lines = append(lines, line)
		fmt.Fprintln(h, line)
	}
	vars := make([]daikon.VarID, 0, len(db.VarsSeen))
	for v := range db.VarsSeen {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Less(vars[j]) })
	for _, v := range vars {
		fmt.Fprintf(h, "%s %d\n", v, db.VarsSeen[v])
	}
	header = fmt.Sprintf("== %s: runs %d (%d normal), invariants %d, vars %d, sha256 %x",
		name, stats.Runs, stats.NormalRuns, db.Len(), len(db.VarsSeen), h.Sum(nil))
	return header, lines
}

// parseLearnGolden splits the golden into per-case headers and invariant
// lines.
func parseLearnGolden(raw string) (headers map[string]string, lines map[string][]string) {
	headers, lines = map[string]string{}, map[string][]string{}
	var cur string
	for _, l := range strings.Split(strings.TrimRight(raw, "\n"), "\n") {
		if strings.HasPrefix(l, "== ") {
			cur = strings.TrimSuffix(strings.Fields(l)[1], ":")
			headers[cur] = l
			continue
		}
		lines[cur] = append(lines[cur], l)
	}
	return headers, lines
}

// lineDiff returns the lines only in a and only in b, at most max of each.
func lineDiff(a, b []string, max int) (onlyA, onlyB []string) {
	inB := make(map[string]bool, len(b))
	for _, l := range b {
		inB[l] = true
	}
	inA := make(map[string]bool, len(a))
	for _, l := range a {
		inA[l] = true
		if !inB[l] && len(onlyA) < max {
			onlyA = append(onlyA, l)
		}
	}
	for _, l := range b {
		if !inA[l] && len(onlyB) < max {
			onlyB = append(onlyB, l)
		}
	}
	return onlyA, onlyB
}

// TestLearnedDatabaseGolden pins the content of the learned databases,
// not only their per-family counts (cmd/learn's goldens): every
// invariant's values, bound and samples, and every variable's observation
// count. A change to the recorder or the inference engine that moves any
// of them fails here and prints the invariants that differ. Run with
// -update to rewrite testdata/learned_db.golden.
func TestLearnedDatabaseGolden(t *testing.T) {
	app := webapp.MustBuild()
	var out strings.Builder
	got := map[string][]string{}
	gotHeaders := map[string]string{}
	for _, tc := range learnCases() {
		db, stats, err := core.Learn(app.Image, tc.conf(app))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		header, lines := dumpDB(tc.name, db, stats)
		gotHeaders[tc.name], got[tc.name] = header, lines
		out.WriteString(header + "\n")
		for _, l := range lines {
			out.WriteString(l + "\n")
		}
	}

	path := filepath.Join("testdata", "learned_db.golden")
	if *update {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	wantHeaders, want := parseLearnGolden(string(raw))
	for _, tc := range learnCases() {
		if gotHeaders[tc.name] == wantHeaders[tc.name] {
			continue
		}
		onlyGot, onlyWant := lineDiff(got[tc.name], want[tc.name], 20)
		t.Errorf("%s: learned database differs\n got: %s\nwant: %s\ninvariants only in got:\n  %s\ninvariants only in want:\n  %s",
			tc.name, gotHeaders[tc.name], wantHeaders[tc.name],
			strings.Join(onlyGot, "\n  "), strings.Join(onlyWant, "\n  "))
	}
}

// TestShardSPOffsetsMatchFullLearning: a §3.1 learning shard measures
// stack-pointer offsets from the same procedure entries as full learning,
// whichever instruction its first traced hook runs at. Shard 1 of 4, as
// the manager assigns it, must learn full learning's sp-offset at every
// pc both learn one at, so that merging the shard into a seed database
// learned in full leaves every one of the seed's sp-offsets as it was.
func TestShardSPOffsetsMatchFullLearning(t *testing.T) {
	app := webapp.MustBuild()
	learn := func(name string) *daikon.DB {
		for _, tc := range learnCases() {
			if tc.name == name {
				db, _, err := core.Learn(app.Image, tc.conf(app))
				if err != nil {
					t.Fatal(err)
				}
				return db
			}
		}
		t.Fatalf("no learning campaign %q", name)
		return nil
	}
	spOffsets := func(db *daikon.DB) map[uint32]int32 {
		out := map[uint32]int32{}
		for _, inv := range db.ByID {
			if inv.Kind == daikon.KindSPOffset {
				out[inv.Var.PC] = inv.Bound
			}
		}
		return out
	}
	seed, shard := learn("learning-corpus"), learn("community-shard")
	seedSP, shardSP := spOffsets(seed), spOffsets(shard)
	both := 0
	for pc, d := range shardSP {
		if want, ok := seedSP[pc]; ok {
			both++
			if d != want {
				t.Errorf("sp@%#x: the shard learns %d, full learning %d", pc, d, want)
			}
		}
	}
	if both == 0 {
		t.Fatal("the shard and full learning share no sp-offset")
	}
	seed.Merge(shard, 0)
	kept := 0
	for pc, d := range spOffsets(seed) {
		if want, ok := seedSP[pc]; ok && d == want {
			kept++
		}
	}
	if kept != len(seedSP) {
		t.Errorf("merging the shard kept %d of the seed's %d sp-offsets", kept, len(seedSP))
	}
}

// learnRuns learns from inputs through the public front end, as core.Learn
// does, and returns the database, the engine's VarsObserved, the coverage
// of the committed runs and one coverage per discarded run.
func learnRuns(t *testing.T, app *webapp.App, inputs [][]byte) (db *daikon.DB, vars int, committed *vm.Coverage, discarded []*vm.Coverage) {
	t.Helper()
	eng := daikon.NewEngine()
	rec := trace.NewRecorder(eng)
	committed = vm.NewCoverage()
	for _, input := range inputs {
		cov := vm.NewCoverage()
		machine, err := vm.New(vm.Config{
			Image: app.Image, Plugins: []vm.Plugin{rec}, Input: input,
			MaxSteps: 1_000_000, Coverage: cov,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res := machine.Run(); res.Outcome == vm.OutcomeExit && res.ExitCode == 0 {
			rec.CommitRun()
			committed.Merge(cov)
		} else {
			rec.DiscardRun()
			discarded = append(discarded, cov)
		}
	}
	return eng.Finalize(daikon.Options{}), eng.VarsObserved(), committed, discarded
}

// blocks returns the start addresses of the blocks a coverage entered.
func blocks(cov *vm.Coverage) map[uint32]bool {
	out := map[uint32]bool{}
	for _, e := range cov.Edges() {
		out[e.To] = true
	}
	return out
}

// TestDiscardedRunsLeaveNoTrace: the engine hands out dense statistics
// when a block is instrumented, including blocks that only erroneous runs
// reach. Learning with attack inputs that crash after reaching such
// blocks, before, between and after the normal runs, must give the same
// database and VarsObserved as learning without them (§3.1).
func TestDiscardedRunsLeaveNoTrace(t *testing.T) {
	app := webapp.MustBuild()
	normal := [][]byte{LearningCorpus(), Input(EvaluationPages()[0]), Input(EvaluationPages()[1])}
	wantDB, wantVars, committed, discarded := learnRuns(t, app, normal)
	if len(discarded) != 0 {
		t.Fatalf("%d normal inputs were discarded", len(discarded))
	}
	seen := blocks(committed)

	var crashers [][]byte
	for _, ex := range AllExploits() {
		input := AttackInput(app, ex, 0)
		_, _, _, d := learnRuns(t, app, [][]byte{input})
		if len(d) != 1 {
			continue // exits normally on an unmonitored machine
		}
		for pc := range blocks(d[0]) {
			if !seen[pc] {
				crashers = append(crashers, input)
				break
			}
		}
	}
	if len(crashers) < 3 {
		t.Fatalf("only %d attack inputs crash in code the normal runs never reach", len(crashers))
	}

	mixed := [][]byte{crashers[0], normal[0], crashers[1], normal[1]}
	mixed = append(mixed, crashers[2:]...)
	mixed = append(mixed, normal[2])
	gotDB, gotVars, _, d := learnRuns(t, app, mixed)
	if len(d) != len(crashers) {
		t.Fatalf("%d runs discarded, want %d", len(d), len(crashers))
	}
	wantHeader, wantLines := dumpDB("normal", wantDB, core.LearnStats{})
	gotHeader, gotLines := dumpDB("normal", gotDB, core.LearnStats{})
	if gotHeader != wantHeader {
		onlyGot, onlyWant := lineDiff(gotLines, wantLines, 20)
		t.Errorf("discarded runs changed the database\n got: %s\nwant: %s\nonly in got:\n  %s\nonly in want:\n  %s",
			gotHeader, wantHeader, strings.Join(onlyGot, "\n  "), strings.Join(onlyWant, "\n  "))
	}
	if gotVars != wantVars || wantVars != len(wantDB.VarsSeen) {
		t.Errorf("VarsObserved = %d with discarded runs, %d without; the database holds %d variables",
			gotVars, wantVars, len(wantDB.VarsSeen))
	}
}

// TestLearningMemoryIndependentOfRunLength: a learning run's memory is
// bounded by the code it reaches, not by how long it runs. The hang-loop
// attack spins in one loop until the step limit and is discarded; four
// times the steps must allocate about the same.
func TestLearningMemoryIndependentOfRunLength(t *testing.T) {
	app := webapp.MustBuild()
	input := AttackInput(app, exploitByID(t, "hang-loop"), 0)
	allocated := func(steps uint64) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, stats, err := core.Learn(app.Image, core.LearnConfig{Inputs: [][]byte{input}, MaxSteps: steps})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Discarded != 1 || stats.StepsTraced < steps {
			t.Fatalf("MaxSteps %d: %+v, want one discarded run of %d steps", steps, stats, steps)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated(250_000) // warm up
	short, long := allocated(250_000), allocated(1_000_000)
	t.Logf("allocated %d B at 250k steps, %d B at 1M steps", short, long)
	if float64(long) > 1.2*float64(short) {
		t.Errorf("learning allocated %d B at 1M steps against %d B at 250k: memory grows with run length", long, short)
	}
}

// fmtVarID, fmtInvariantID and fmtRepairID are the fmt formats the IDs
// were first defined by.
func fmtVarID(v daikon.VarID) string { return fmt.Sprintf("%#x.%d", v.PC, v.Slot) }

func fmtInvariantID(inv *daikon.Invariant) string {
	switch inv.Kind {
	case daikon.KindLessThan:
		return fmt.Sprintf("lt@%s<=%s", fmtVarID(inv.Var), fmtVarID(inv.Var2))
	case daikon.KindSPOffset:
		return fmt.Sprintf("sp@%#x", inv.Var.PC)
	case daikon.KindLowerBound:
		return fmt.Sprintf("lb@%s", fmtVarID(inv.Var))
	case daikon.KindNonzero:
		return fmt.Sprintf("nz@%s", fmtVarID(inv.Var))
	case daikon.KindModulus:
		return fmt.Sprintf("mod@%s", fmtVarID(inv.Var))
	default:
		return fmt.Sprintf("oneof@%s", fmtVarID(inv.Var))
	}
}

func fmtRepairID(r *repair.Repair) string {
	if r.Strategy == repair.StratSetValue {
		return fmt.Sprintf("%s/%s=%#x", fmtInvariantID(r.Inv), r.Strategy, r.Value)
	}
	return fmt.Sprintf("%s/%s", fmtInvariantID(r.Inv), r.Strategy)
}

// TestIDsMatchFmtFormat: VarID.String, Invariant.ID and Repair.ID are
// built with strconv appends; they must be byte for byte the strings the
// fmt formats give, over every invariant the pinned campaigns learn and
// every candidate repair Table 1's campaigns generate.
func TestIDsMatchFmtFormat(t *testing.T) {
	app := webapp.MustBuild()
	var invs, repairs int
	for _, tc := range learnCases() {
		db, _, err := core.Learn(app.Image, tc.conf(app))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, inv := range db.ByID {
			if got, want := inv.ID(), fmtInvariantID(inv); got != want {
				t.Errorf("Invariant.ID = %q, fmt gives %q", got, want)
			}
			if got, want := inv.Var.String(), fmtVarID(inv.Var); got != want {
				t.Errorf("VarID.String = %q, fmt gives %q", got, want)
			}
			invs++
		}
	}
	for _, ex := range AllExploits() {
		setup := getSetup(t, ex.NeedsExpandedCorpus)
		cv, err := setup.ClearView(ex.NeedsStackScope)
		if err != nil {
			t.Fatal(err)
		}
		RunSingleVariant(cv, setup.App, ex, 20)
		for _, fc := range cv.Cases() {
			for _, r := range fc.Repairs {
				if got, want := r.ID(), fmtRepairID(r); got != want {
					t.Errorf("Repair.ID = %q, fmt gives %q", got, want)
				}
				repairs++
			}
		}
	}
	if invs == 0 || repairs == 0 {
		t.Fatalf("compared %d invariants and %d repairs", invs, repairs)
	}
	t.Logf("compared %d invariant IDs and %d repair IDs", invs, repairs)
}
