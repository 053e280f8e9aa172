package redteam

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/replay"
	"repro/internal/vm"
	"repro/internal/webapp"
)

// oracleInputs is the differential corpus: every Red Team exploit (all
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

type oracleObs struct {
	res     vm.RunResult
	covHash uint64
	edges   int
}

func runOracle(t *testing.T, app *webapp.App, input []byte, threshold int, monitored bool) oracleObs {
	t.Helper()
	cov := vm.NewCoverage()
	cfg := vm.Config{
		Image:          app.Image,
		Input:          input,
		Coverage:       cov,
		MaxSteps:       2_000_000,
		TraceThreshold: threshold,
	}
	var install func(*vm.VM)
	if monitored {
		mons := replay.AllMonitors()
		mons.HangBudget = 200_000
		plugins, shadow, hang := mons.Plugins()
		cfg.Plugins = plugins
		install = func(machine *vm.VM) {
			shadow.Install(machine)
			hang.Install(machine)
		}
	}
	machine, err := vm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if install != nil {
		install(machine)
	}
	return oracleObs{res: machine.Run(), covHash: cov.Hash(), edges: cov.EdgeCount()}
}

func diffOracle(t *testing.T, name string, on, off oracleObs) {
	t.Helper()
	a, b := on.res, off.res
	if a.Outcome != b.Outcome || a.ExitCode != b.ExitCode || a.Steps != b.Steps ||
		a.Blocks != b.Blocks || a.HookRuns != b.HookRuns {
		t.Fatalf("%s: RunResult diverges under trace JIT\n jit: %+v\n int: %+v", name, a, b)
	}
	if !bytes.Equal(a.Output, b.Output) {
		t.Fatalf("%s: display output diverges under trace JIT (%d vs %d bytes)", name, len(a.Output), len(b.Output))
	}
	if (a.Crash == nil) != (b.Crash == nil) ||
		(a.Crash != nil && (a.Crash.PC != b.Crash.PC || a.Crash.Reason != b.Crash.Reason)) {
		t.Fatalf("%s: crash detail diverges: %+v vs %+v", name, a.Crash, b.Crash)
	}
	if (a.Failure == nil) != (b.Failure == nil) ||
		(a.Failure != nil && (a.Failure.PC != b.Failure.PC || a.Failure.Monitor != b.Failure.Monitor ||
			a.Failure.Kind != b.Failure.Kind || a.Failure.Target != b.Failure.Target)) {
		t.Fatalf("%s: failure detail diverges: %+v vs %+v", name, a.Failure, b.Failure)
	}
	if on.covHash != off.covHash || on.edges != off.edges {
		t.Fatalf("%s: coverage fingerprint diverges: %#x/%d edges vs %#x/%d edges",
			name, on.covHash, on.edges, off.covHash, off.edges)
	}
}

// TestTraceJITDifferentialOracle runs the full exploit + benign + fuzz-seed
// corpus over the real application twice — trace JIT at the default
// threshold versus disabled — and demands byte-identical observable
// behavior: outcome, exit code, step count, blocks decoded, display output,
// crash/failure details, and the edge-coverage fingerprint the fuzzer keys
// its corpus on. An aggressive threshold-1 arm maximizes time spent inside
// superblocks.
func TestTraceJITDifferentialOracle(t *testing.T) {
	app, err := webapp.Build()
	if err != nil {
		t.Fatal(err)
	}
	for name, input := range oracleInputs(app) {
		off := runOracle(t, app, input, vm.TraceDisabled, false)
		diffOracle(t, name+"/default", runOracle(t, app, input, 0, false), off)
		diffOracle(t, name+"/th1", runOracle(t, app, input, 1, false), off)
	}
	assertZeroPageClean(t)
}

// TestTraceJITDifferentialOracleMonitored repeats the oracle under the full
// detector set (Memory Firewall, Heap Guard, Shadow Stack, fault and hang
// guards): superblocks must dispatch hooked blocks through the instrumented
// executors with identical hook-run counts and detections.
func TestTraceJITDifferentialOracleMonitored(t *testing.T) {
	app, err := webapp.Build()
	if err != nil {
		t.Fatal(err)
	}
	for name, input := range oracleInputs(app) {
		off := runOracle(t, app, input, vm.TraceDisabled, true)
		diffOracle(t, name+"/mon-default", runOracle(t, app, input, 0, true), off)
		diffOracle(t, name+"/mon-th1", runOracle(t, app, input, 1, true), off)
	}
	assertZeroPageClean(t)
}

// assertZeroPageClean demands that a fresh mapping still reads zero after
// the oracle's runs. Fresh pages read from memory's one shared zero page,
// so a write that reached it from any execution tier — interpreter,
// superblock sweep, block copy, hook — would show here.
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
