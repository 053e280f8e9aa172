package redteam

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/replay"
	"repro/internal/vm"
	"repro/internal/webapp"
)

var update = flag.Bool("update", false, "rewrite golden files")

// oracleInputs is the oracle corpus: every Red Team exploit (all
// variants), the benign learning and evaluation suites, and the fuzz seed
// pages from the webapp fuzzer — crashes, hangs, monitor detections, and
// clean exits all represented.
func oracleInputs(app *webapp.App) map[string][]byte {
	inputs := map[string][]byte{
		"benign/learning": LearningCorpus(),
		"benign/expanded": ExpandedCorpus(),
	}
	for i, p := range EvaluationPages() {
		inputs[fmt.Sprintf("benign/eval%d", i)] = Input(p)
	}
	for _, ex := range AllExploits() {
		for variant := 0; variant < ex.Variants; variant++ {
			inputs[fmt.Sprintf("exploit/%s/v%d", ex.Bugzilla, variant)] = AttackInput(app, ex, variant)
		}
	}
	seedPage := func(body ...byte) []byte {
		out := []byte{byte(len(body)), byte(len(body) >> 8)}
		return append(out, body...)
	}
	seeds := [][]byte{
		{},
		seedPage(0x01, 3, 'a', 'b', 'c'),
		seedPage(0x02, 3, 3, 0xFF, 65, 66, 67, 68),
		seedPage(0x06, 6, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9),
		seedPage(0x0A, 64, 9),
		seedPage(0x0A, 64, 8),
		seedPage(0x0B, 2, 8),
		seedPage(0x0B, 2, 6),
		seedPage(0x0C, 9, 7),
		seedPage(0x0C, 41, 16),
	}
	for i, s := range seeds {
		inputs[fmt.Sprintf("fuzzseed/%d", i)] = s
	}
	return inputs
}

// runOracle runs one corpus input over the real application, bare or
// under the full detector set, and renders everything observable about
// the run as one line: outcome, exit code, step/block/hook counts, a
// digest of the display output, crash or failure details, and the
// edge-coverage fingerprint the fuzzer keys its corpus on.
func runOracle(t *testing.T, app *webapp.App, name string, input []byte, monitored bool) string {
	t.Helper()
	cov := vm.NewCoverage()
	cfg := vm.Config{Image: app.Image, Input: input, Coverage: cov, MaxSteps: 2_000_000}
	if monitored {
		mons := replay.AllMonitors()
		mons.HangBudget = 200_000
		cfg.Plugins, _, _ = mons.Plugins()
	}
	machine, err := vm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := machine.Run()
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s exit=%d steps=%d blocks=%d hooks=%d output=%x cov=%#x/%d",
		name, res.Outcome, res.ExitCode, res.Steps, res.Blocks, res.HookRuns,
		sha256.Sum256(res.Output), cov.Hash(), cov.EdgeCount())
	if c := res.Crash; c != nil {
		fmt.Fprintf(&b, " crash=%#x:%q", c.PC, c.Reason)
	}
	if f := res.Failure; f != nil {
		fmt.Fprintf(&b, " failure=%#x:%s:%s:%#x:%q stack=%#x", f.PC, f.Monitor, f.Kind, f.Target, f.Detail, f.Stack)
	}
	return b.String()
}

// checkOracleGolden runs the whole corpus in one mode and compares the
// rendered runs, sorted by input name, with testdata/<file>. Run with
// -update to rewrite the golden.
func checkOracleGolden(t *testing.T, file string, monitored bool) {
	app, err := webapp.Build()
	if err != nil {
		t.Fatal(err)
	}
	inputs := oracleInputs(app)
	names := make([]string, 0, len(inputs))
	for name := range inputs {
		names = append(names, name)
	}
	sort.Strings(names)
	var got strings.Builder
	for _, name := range names {
		got.WriteString(runOracle(t, app, name, inputs[name], monitored) + "\n")
	}
	assertZeroPageClean(t)

	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// TestOracleCorpusGolden pins the interpreter's observable behavior on the
// exploit + benign + fuzz-seed corpus with no instrumentation: outcome,
// exit code, step count, blocks decoded, display output, crash details,
// and the coverage fingerprint.
func TestOracleCorpusGolden(t *testing.T) {
	checkOracleGolden(t, "oracle_bare.golden", false)
}

// TestOracleCorpusGoldenMonitored pins the same corpus under the full
// detector set (Memory Firewall, Heap Guard, Shadow Stack, fault and hang
// guards), so hook-run counts and every detection — failure PC, monitor,
// kind, target and shadow stack — are pinned too.
func TestOracleCorpusGoldenMonitored(t *testing.T) {
	checkOracleGolden(t, "oracle_monitored.golden", true)
}

// assertZeroPageClean demands that a fresh mapping still reads zero after
// the oracle's runs. Fresh pages read from memory's one shared zero page,
// so a write that reached it from any path — interpreter, block copy,
// hook — would show here.
func assertZeroPageClean(t *testing.T) {
	t.Helper()
	m := mem.New()
	m.Map(0, mem.PageSize)
	b, err := m.ReadBytes(0, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, make([]byte, mem.PageSize)) {
		t.Fatal("a fresh mapping reads nonzero: the shared zero page was written")
	}
}
