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

// Table2Config is one row of the Table 2 reproduction (§4.4.2): the
// monitors a page loads under and, in the last row, the deployed repair.
type Table2Config struct {
	// Name is the row label the overhead table prints.
	Name string
	// Bench names the row's BenchmarkTable2 sub-benchmark.
	Bench string
	// Monitors are the detectors every page loads under.
	Monitors replay.Monitors
	// Patches are the adopted repair's patches, deployed on every page.
	Patches []*vm.Patch
}

// Table2Configs returns the seven Table 2 rows: the paper's five
// configurations, the full extended detector set (which also prices the
// arithmetic-fault and hang detectors, whose cost is confined to
// faultable instructions and the dispatch loop), and the paper's third
// deployment state, every detector plus an adopted repair. The repair is
// generated the real way: a single-exploit campaign against 290162 runs
// on s until ClearView adopts one.
func Table2Configs(s *Setup) ([]Table2Config, error) {
	patches, err := adoptedRepair(s)
	if err != nil {
		return nil, err
	}
	all := replay.AllMonitors()
	return []Table2Config{
		{Name: "Bare application", Bench: "Bare"},
		{Name: "Memory Firewall", Bench: "MemoryFirewall",
			Monitors: replay.Monitors{MemoryFirewall: true}},
		{Name: "Memory Firewall + Shadow Stack", Bench: "MemoryFirewall+ShadowStack",
			Monitors: replay.Monitors{MemoryFirewall: true, ShadowStack: true}},
		{Name: "Memory Firewall + Heap Guard", Bench: "MemoryFirewall+HeapGuard",
			Monitors: replay.Monitors{MemoryFirewall: true, HeapGuard: true}},
		{Name: "Memory Firewall + Heap Guard + Shadow Stack", Bench: "MemoryFirewall+HeapGuard+ShadowStack",
			Monitors: replay.Monitors{MemoryFirewall: true, HeapGuard: true, ShadowStack: true}},
		{Name: "All detectors (+ Fault Guard + Hang Guard)", Bench: "AllDetectors", Monitors: all},
		{Name: "All detectors + adopted repair", Bench: "AllDetectors+AdoptedRepair", Monitors: all, Patches: patches},
	}, nil
}

// adoptedRepair runs a 290162 campaign until ClearView adopts a repair and
// returns the repair's patches.
func adoptedRepair(s *Setup) ([]*vm.Patch, error) {
	const bugzilla = "290162"
	var target *Exploit
	for _, ex := range Exploits() {
		if ex.Bugzilla == bugzilla {
			target = &ex
			break
		}
	}
	if target == nil {
		return nil, fmt.Errorf("overhead: exploit %s not in corpus", bugzilla)
	}
	cv, err := s.ClearView(target.NeedsStackScope)
	if err != nil {
		return nil, err
	}
	if res := RunSingleVariant(cv, s.App, *target, 24); !res.Patched {
		return nil, fmt.Errorf("overhead: campaign did not adopt a repair for %s", bugzilla)
	}
	var patches []*vm.Patch
	for _, fc := range cv.Cases() {
		if fc.Current != nil {
			patches = append(patches, fc.Current.Repair.BuildPatches(fc.ID)...)
		}
	}
	if len(patches) == 0 {
		return nil, fmt.Errorf("overhead: no deployed patch after the %s campaign", bugzilla)
	}
	return patches, nil
}

// machine builds a fresh machine that loads input under the row's
// monitors and patches.
func (c *Table2Config) machine(app *webapp.App, input []byte) (*vm.VM, error) {
	plugins, _, _ := c.Monitors.Plugins()
	return vm.New(vm.Config{Image: app.Image, Input: input, Plugins: plugins, Patches: c.Patches})
}

// Load runs input to completion on a fresh machine under the row's
// monitors and patches.
func (c *Table2Config) Load(app *webapp.App, input []byte) (vm.RunResult, error) {
	machine, err := c.machine(app, input)
	if err != nil {
		return vm.RunResult{}, err
	}
	return machine.Run(), nil
}

// measureConfig loads the evaluation pages repeats times under one row's
// configuration and returns the accumulated row (derived columns unset).
func measureConfig(app *webapp.App, pages [][]byte, c *Table2Config, repeats int) (OverheadRow, error) {
	row := OverheadRow{Config: c.Name}
	start := time.Now()
	for r := 0; r < repeats; r++ {
		for i, page := range pages {
			res, err := c.Load(app, page)
			if err != nil {
				return row, err
			}
			if res.Outcome != vm.OutcomeExit {
				return row, fmt.Errorf("page %d failed under %q: %v", i, c.Name, res.Outcome)
			}
			row.Steps += res.Steps
			row.HookRuns += res.HookRuns
		}
	}
	row.Wall = time.Since(start)
	return row, nil
}

// MeasureTable2 loads the 57 evaluation pages under each Table2Configs
// row (the page-load workload of §4.4.2), so the table answers
// "unmonitored vs monitored vs patched" at once, and reports the relative
// overheads. repeats > 1 smooths wall-clock noise.
func MeasureTable2(s *Setup, repeats int) ([]OverheadRow, error) {
	if repeats <= 0 {
		repeats = 1
	}
	configs, err := Table2Configs(s)
	if err != nil {
		return nil, err
	}
	pages := EvaluationPages()
	// One discarded sweep warms the process (allocator, code paths) and
	// settles the GC state the repair campaign left behind before the bare
	// row is timed; without it the first-measured configuration absorbs
	// the warmup cost and the ratios invert.
	if _, err := measureConfig(s.App, pages, &configs[0], 1); err != nil {
		return nil, err
	}
	var rows []OverheadRow
	for i := range configs {
		row, err := measureConfig(s.App, pages, &configs[i], repeats)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
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
