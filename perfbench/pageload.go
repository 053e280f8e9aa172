package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/redteam"
	"repro/internal/replay"
	"repro/internal/vm"
	"repro/internal/webapp"
)

// overheadPasses is how many passes over the pages the traced pageload run
// makes to price the monitors against the bare application.
const overheadPasses = 5

// pageEnv is the pageload workload after set-up: the Table 2 "All
// detectors + adopted repair" row.
type pageEnv struct {
	app           *webapp.App
	learnt        learnedDB
	patches       []*vm.Patch
	presentations int
	pages         [][]byte
	want          [][]byte // the bare application's output for each page
}

func preparePageload() (func(*tracer) (env, error), error) {
	ex, err := exploitByID("290162")
	if err != nil {
		return nil, err
	}
	inputApp, err := webapp.Build()
	if err != nil {
		return nil, err
	}
	attack := redteam.AttackInput(inputApp, ex, 0)
	corpus := redteam.LearningCorpus()
	pages := redteam.EvaluationPages()

	return func(tr *tracer) (env, error) {
		app, err := buildApp(tr)
		if err != nil {
			return nil, err
		}
		l, err := learn(app.Image, corpus, tr)
		if err != nil {
			return nil, err
		}
		tr.begin("core.adopt")
		defer tr.end()
		cv, err := (&redteam.Setup{App: app, DB: l.db}).ClearView(ex.NeedsStackScope)
		if err != nil {
			return nil, err
		}
		presentations, err := campaign(cv, attack, nil)
		if err != nil {
			return nil, fmt.Errorf("adopting the %s repair: %w", ex.Bugzilla, err)
		}
		var patches []*vm.Patch
		for _, fc := range cv.Cases() {
			if fc.Current != nil {
				patches = append(patches, fc.Current.Repair.BuildPatches(fc.ID)...)
			}
		}
		if len(patches) == 0 {
			return nil, fmt.Errorf("no patch deployed after the %s campaign", ex.Bugzilla)
		}
		return &pageEnv{app: app, learnt: l, patches: patches, presentations: presentations, pages: pages}, nil
	}, nil
}

func (p *pageEnv) references() error {
	p.want = make([][]byte, len(p.pages))
	for i, page := range p.pages {
		res, err := p.load(page, false)
		if err != nil {
			return err
		}
		if res.Outcome != vm.OutcomeExit || res.ExitCode != 0 {
			return fmt.Errorf("page %d fails on the bare application: %v", i, res.Outcome)
		}
		p.want[i] = res.Output
	}
	return nil
}

func (p *pageEnv) passLen() int         { return len(p.pages) }
func (p *pageEnv) learned() []learnedDB { return []learnedDB{p.learnt} }

// machine builds a fresh machine for one page, monitored under every
// detector with the adopted repair, or bare.
func (p *pageEnv) machine(page []byte, monitored bool) (*vm.VM, error) {
	if !monitored {
		return vm.New(vm.Config{Image: p.app.Image, Input: page})
	}
	plugins, shadow, hang := replay.AllMonitors().Plugins()
	machine, err := vm.New(vm.Config{Image: p.app.Image, Input: page, Plugins: plugins, Patches: p.patches})
	if err != nil {
		return nil, err
	}
	shadow.Install(machine)
	hang.Install(machine)
	return machine, nil
}

func (p *pageEnv) load(page []byte, monitored bool) (vm.RunResult, error) {
	machine, err := p.machine(page, monitored)
	if err != nil {
		return vm.RunResult{}, err
	}
	return machine.Run(), nil
}

func (p *pageEnv) op(i int, tr *tracer) (outcome, error) {
	done := outcome{presentations: p.presentations, patches: 1}
	tr.begin("vm.new")
	machine, err := p.machine(p.pages[i], true)
	tr.end()
	if err != nil {
		return done, err
	}
	tr.begin("vm.run")
	res := machine.Run()
	tr.end()
	if tr != nil {
		tr.add("vm.steps", float64(res.Steps))
		tr.add("vm.blocks_decoded", float64(res.Blocks))
		tr.add("vm.hook_runs", float64(res.HookRuns))
	}
	return done, checkPage(res, p.want[i])
}

// checkPage requires a clean exit and the bare application's exact output.
func checkPage(res vm.RunResult, want []byte) error {
	if res.Outcome != vm.OutcomeExit || res.ExitCode != 0 {
		return fmt.Errorf("page did not exit cleanly: %v (exit %d)", res.Outcome, res.ExitCode)
	}
	if !bytes.Equal(res.Output, want) {
		return fmt.Errorf("page output differs from the bare application's (%d vs %d bytes)", len(res.Output), len(want))
	}
	return nil
}

// monitorOverhead is Table 2's ratio: the time to load every page
// monitored with the adopted repair, over the time to load it bare,
// alternating the two page by page.
func (p *pageEnv) monitorOverhead() (float64, error) {
	var monitored, bare time.Duration
	for pass := 0; pass < overheadPasses; pass++ {
		for _, page := range p.pages {
			for _, mon := range []bool{true, false} {
				start := time.Now()
				res, err := p.load(page, mon)
				d := time.Since(start)
				if err != nil {
					return 0, err
				}
				if res.Outcome != vm.OutcomeExit {
					return 0, fmt.Errorf("page failed while pricing the monitors: %v", res.Outcome)
				}
				if mon {
					monitored += d
				} else {
					bare += d
				}
			}
		}
	}
	return float64(monitored) / float64(bare), nil
}
