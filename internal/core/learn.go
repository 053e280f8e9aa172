package core

import (
	"repro/internal/cfg"
	"repro/internal/daikon"
	"repro/internal/image"
	"repro/internal/trace"
	"repro/internal/vm"
)

// LearnConfig controls a learning campaign (§2.2, §3.1).
type LearnConfig struct {
	// Inputs are the learning workloads; each is one execution.
	Inputs [][]byte
	// Repeat re-runs every input this many times (default 1).
	Repeat int
	// Filter restricts tracing to a region (amortized community
	// learning); nil traces everything.
	Filter func(pc uint32) bool
	// Options are the inference ablation knobs.
	Options daikon.Options
	// CFG, when non-nil, accumulates the discovered control flow graphs
	// (shared with the ClearView instance that will use the DB).
	CFG *cfg.DB
	// MaxSteps bounds each learning run.
	MaxSteps uint64
}

// LearnStats reports what a learning campaign did.
type LearnStats struct {
	Runs         int    // executions traced
	NormalRuns   int    // executions that exited normally and were learned from
	Discarded    int    // erroneous executions excluded from the database
	Observations uint64 // trace entries the front end recorded
	StepsTraced  uint64 // instructions executed under tracing
}

// Learn runs the inputs under the Daikon front end and returns the learned
// invariant database. Erroneous executions (crashes, monitor failures) are
// discarded, matching §3.1.
func Learn(img *image.Image, conf LearnConfig) (*daikon.DB, LearnStats, error) {
	if conf.Repeat <= 0 {
		conf.Repeat = 1
	}
	eng := daikon.NewEngine()
	rec := trace.NewRecorder(eng)
	rec.Filter = conf.Filter

	var stats LearnStats
	for r := 0; r < conf.Repeat; r++ {
		for _, input := range conf.Inputs {
			plugins := []vm.Plugin{rec}
			if conf.CFG != nil {
				plugins = append([]vm.Plugin{cfg.NewPlugin(conf.CFG)}, plugins...)
			}
			machine, err := vm.New(vm.Config{
				Image: img, Plugins: plugins, Input: input, MaxSteps: conf.MaxSteps,
			})
			if err != nil {
				return nil, stats, err
			}
			res := machine.Run()
			stats.Runs++
			stats.StepsTraced += res.Steps
			if res.Outcome == vm.OutcomeExit && res.ExitCode == 0 {
				stats.NormalRuns++
				rec.CommitRun()
			} else {
				stats.Discarded++
				rec.DiscardRun()
			}
		}
	}
	stats.Observations = rec.Observations()
	return eng.Finalize(conf.Options), stats, nil
}
