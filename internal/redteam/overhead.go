package redteam

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/daikon"
	"repro/internal/replay"
	"repro/internal/vm"
	"repro/internal/webapp"
)

// OverheadRow is one configuration's cost in the Table 2 reproduction.
type OverheadRow struct {
	Config   string
	Wall     time.Duration
	Steps    uint64
	HookRuns uint64
	Ratio    float64 // wall time relative to the bare configuration

	// Interpreter-throughput view of the same measurement: simulated
	// instructions per wall-clock second and nanoseconds per simulated
	// instruction. These are the numbers the flat-page-table/TLB/linked-
	// dispatch work moves, so the overhead table doubles as the perf
	// trajectory's end-to-end readout.
	InstrPerSec float64
	NsPerInstr  float64
}

// finalize fills the derived columns of a measured row set: ratios are
// relative to the first (bare) row.
func finalizeRows(rows []OverheadRow) {
	base := rows[0].Wall
	for i := range rows {
		rows[i].Ratio = float64(rows[i].Wall) / float64(base)
		if rows[i].Wall > 0 && rows[i].Steps > 0 {
			rows[i].InstrPerSec = float64(rows[i].Steps) / rows[i].Wall.Seconds()
			rows[i].NsPerInstr = float64(rows[i].Wall.Nanoseconds()) / float64(rows[i].Steps)
		}
	}
}

// monitorConfig names one Table 2 row's monitor set.
type monitorConfig struct {
	name string
	mons replay.Monitors
}

// table2Configs are the rows of Table 2 (§4.4.2): the paper's five
// configurations plus the full extended detector set, so the table also
// prices the arithmetic-fault and hang detectors (whose cost is confined
// to faultable instructions and the dispatch loop respectively).
func table2Configs() []monitorConfig {
	return []monitorConfig{
		{name: "Bare application"},
		{name: "Memory Firewall", mons: replay.Monitors{MemoryFirewall: true}},
		{name: "Memory Firewall + Shadow Stack", mons: replay.Monitors{MemoryFirewall: true, ShadowStack: true}},
		{name: "Memory Firewall + Heap Guard", mons: replay.Monitors{MemoryFirewall: true, HeapGuard: true}},
		{name: "Memory Firewall + Heap Guard + Shadow Stack",
			mons: replay.Monitors{MemoryFirewall: true, HeapGuard: true, ShadowStack: true}},
		{name: "All detectors (+ Fault Guard + Hang Guard)", mons: replay.AllMonitors()},
	}
}

func runUnderConfig(app *webapp.App, input []byte, mc monitorConfig, patches []*vm.Patch) (vm.RunResult, error) {
	plugins, shadow, hang := mc.mons.Plugins()
	machine, err := vm.New(vm.Config{Image: app.Image, Input: input, Plugins: plugins, Patches: patches})
	if err != nil {
		return vm.RunResult{}, err
	}
	if shadow != nil {
		shadow.Install(machine)
	}
	if hang != nil {
		hang.Install(machine)
	}
	return machine.Run(), nil
}

// measureConfig loads the evaluation pages repeats times under one
// monitor configuration (plus optional deployed patches) and returns the
// accumulated row (derived columns unset).
func measureConfig(app *webapp.App, pages [][]byte, mc monitorConfig, patches []*vm.Patch, repeats int) (OverheadRow, error) {
	row := OverheadRow{Config: mc.name}
	start := time.Now()
	for r := 0; r < repeats; r++ {
		for i, page := range pages {
			res, err := runUnderConfig(app, page, mc, patches)
			if err != nil {
				return row, err
			}
			if res.Outcome != vm.OutcomeExit {
				return row, fmt.Errorf("page %d failed under %q: %v", i, mc.name, res.Outcome)
			}
			row.Steps += res.Steps
			row.HookRuns += res.HookRuns
		}
	}
	row.Wall = time.Since(start)
	return row, nil
}

// MeasureTable2 loads the 57 evaluation pages under each monitor
// configuration (the page-load workload of §4.4.2) and reports the
// relative overheads. repeats > 1 smooths wall-clock noise.
func MeasureTable2(app *webapp.App, repeats int) ([]OverheadRow, error) {
	if repeats <= 0 {
		repeats = 1
	}
	pages := EvaluationPages()
	// One discarded sweep warms the process (allocator, code paths)
	// before the bare row is timed; without it the first-measured
	// configuration absorbs the warmup cost and the ratios invert.
	if _, err := measureConfig(app, pages, table2Configs()[0], nil, 1); err != nil {
		return nil, err
	}
	var rows []OverheadRow
	for _, mc := range table2Configs() {
		row, err := measureConfig(app, pages, mc, nil, repeats)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	finalizeRows(rows)
	return rows, nil
}

// MeasureOverheadWithPatch extends the Table 2 measurement with the
// paper's third deployment state: the fully monitored application running
// with an adopted repair patch installed. The patch is generated the real
// way — a single-exploit campaign (290162) runs until ClearView adopts a
// repair — and then deployed on the page-load workload, so the table
// answers "unmonitored vs monitored vs patched" from one command.
func MeasureOverheadWithPatch(s *Setup, repeats int) ([]OverheadRow, error) {
	rows, err := MeasureTable2(s.App, repeats)
	if err != nil {
		return nil, err
	}

	var target *Exploit
	for _, ex := range Exploits() {
		if ex.Bugzilla == "290162" {
			e := ex
			target = &e
			break
		}
	}
	if target == nil {
		return nil, fmt.Errorf("overhead: exploit 290162 not in corpus")
	}
	cv, err := s.ClearView(target.NeedsStackScope)
	if err != nil {
		return nil, err
	}
	res := RunSingleVariant(cv, s.App, *target, 24)
	if !res.Patched {
		return nil, fmt.Errorf("overhead: campaign did not adopt a repair for %s", target.Bugzilla)
	}
	var patches []*vm.Patch
	for _, fc := range cv.Cases() {
		if fc.Current != nil {
			patches = append(patches, fc.Current.Repair.BuildPatches(fc.ID)...)
		}
	}
	if len(patches) == 0 {
		return nil, fmt.Errorf("overhead: no deployed patch after successful campaign")
	}

	mc := monitorConfig{
		name: "All detectors + adopted repair",
		mons: replay.AllMonitors(),
	}
	if repeats <= 0 {
		repeats = 1
	}
	// The repair campaign above leaves allocator/GC state that would
	// inflate the patched row relative to the monitor rows measured under
	// steady state; one discarded sweep restores comparability.
	if _, err := measureConfig(s.App, EvaluationPages(), mc, patches, 1); err != nil {
		return nil, err
	}
	row, err := measureConfig(s.App, EvaluationPages(), mc, patches, repeats)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	finalizeRows(rows)
	return rows, nil
}

// LearningOverhead reports the cost of running the learning corpus with
// the Daikon front end enabled versus disabled (§4.4.1: the paper measured
// a factor of ~300; the structure — instrumentation dominating run time —
// is what this reproduces).
type LearningOverhead struct {
	BareWall     time.Duration
	LearnWall    time.Duration
	Ratio        float64
	Observations uint64
	Invariants   int
}

// MeasureLearningOverhead runs the default corpus bare and under learning.
func MeasureLearningOverhead(app *webapp.App, repeats int) (LearningOverhead, error) {
	if repeats <= 0 {
		repeats = 1
	}
	corpus := LearningCorpus()
	var out LearningOverhead

	start := time.Now()
	for r := 0; r < repeats; r++ {
		machine, err := vm.New(vm.Config{Image: app.Image, Input: corpus})
		if err != nil {
			return out, err
		}
		if res := machine.Run(); res.Outcome != vm.OutcomeExit {
			return out, fmt.Errorf("bare corpus run failed: %v", res.Outcome)
		}
	}
	out.BareWall = time.Since(start)

	start = time.Now()
	var db *daikon.DB
	var stats core.LearnStats
	for r := 0; r < repeats; r++ {
		var err error
		db, stats, err = core.Learn(app.Image, core.LearnConfig{Inputs: [][]byte{corpus}})
		if err != nil {
			return out, err
		}
	}
	out.LearnWall = time.Since(start)
	out.Ratio = float64(out.LearnWall) / float64(out.BareWall)
	out.Observations = stats.Observations
	out.Invariants = db.Len()
	return out, nil
}

// PrintTable2 renders overhead rows, including the interpreter-throughput
// columns (instructions/second and ns/instruction) that make the table a
// before/after perf readout as well as the paper's ratio story.
func PrintTable2(w io.Writer, rows []OverheadRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ClearView Configuration\tTime\tRatio\tInstrs\tInstrs/sec\tns/instr\tHook runs")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%d\t%.2fM\t%.1f\t%d\n",
			r.Config, r.Wall.Round(time.Microsecond), r.Ratio,
			r.Steps, r.InstrPerSec/1e6, r.NsPerInstr, r.HookRuns)
	}
	tw.Flush()
}
