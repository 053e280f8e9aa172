package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/redteam"
	"repro/internal/vm"
	"repro/internal/webapp"
)

// maxPresentations bounds one campaign, as the Table 1 benchmark does.
const maxPresentations = 24

// pinnedPresentations is Table 1 as this reproduction reproduces it: the
// presentation on which each repairable exploit is first survived. 285595
// runs at stack scope 2 and 325403 on the expanded corpus (§4.3.2).
var pinnedPresentations = map[string]int{
	"269095": 6, "285595": 4, "290162": 4, "295854": 5, "296134": 4, "311710": 10,
	"312278": 4, "320182": 6, "325403": 4, "div-zero": 4, "unaligned": 4, "hang-loop": 4,
}

// repairCase is one exploit of the repair workload.
type repairCase struct {
	ex     redteam.Exploit
	input  []byte
	pinned int
}

// repairEnv is the repair workload after set-up: the Red Team deployment
// with both learned databases.
type repairEnv struct {
	base, expanded *redteam.Setup
	learnt         []learnedDB
	cases          []repairCase
}

func exploitByID(id string) (redteam.Exploit, error) {
	for _, ex := range redteam.AllExploits() {
		if ex.Bugzilla == id {
			return ex, nil
		}
	}
	return redteam.Exploit{}, fmt.Errorf("unknown exploit %s", id)
}

func prepareRepair() (func(*tracer) (env, error), error) {
	inputApp, err := webapp.Build()
	if err != nil {
		return nil, err
	}
	var cases []repairCase
	for _, ex := range redteam.AllExploits() {
		if !ex.Repairable {
			continue
		}
		pinned, ok := pinnedPresentations[ex.Bugzilla]
		if !ok {
			return nil, fmt.Errorf("exploit %s has no pinned presentation count", ex.Bugzilla)
		}
		cases = append(cases, repairCase{ex: ex, input: redteam.AttackInput(inputApp, ex, 0), pinned: pinned})
	}
	corpus, expanded := redteam.LearningCorpus(), redteam.ExpandedCorpus()

	return func(tr *tracer) (env, error) {
		app, err := buildApp(tr)
		if err != nil {
			return nil, err
		}
		base, err := learn(app.Image, corpus, tr)
		if err != nil {
			return nil, err
		}
		exp, err := learn(app.Image, expanded, tr)
		if err != nil {
			return nil, err
		}
		return &repairEnv{
			base:     &redteam.Setup{App: app, DB: base.db},
			expanded: &redteam.Setup{App: app, DB: exp.db},
			learnt:   []learnedDB{base, exp},
			cases:    cases,
		}, nil
	}, nil
}

func (r *repairEnv) references() error    { return nil }
func (r *repairEnv) passLen() int         { return len(r.cases) }
func (r *repairEnv) learned() []learnedDB { return r.learnt }

// campaign presents input until the application survives it (§4.3.1) and
// returns the presentation that survived.
func campaign(cv *core.ClearView, input []byte, tr *tracer) (int, error) {
	for p := 1; p <= maxPresentations; p++ {
		tr.begin("core.execute")
		res := cv.Execute(input)
		tr.end()
		if tr != nil {
			tr.add("vm.steps", float64(res.Steps))
			tr.add("vm.blocks_decoded", float64(res.Blocks))
			tr.add("vm.hook_runs", float64(res.HookRuns))
		}
		if res.Outcome == vm.OutcomeExit && res.ExitCode == 0 {
			return p, nil
		}
	}
	return maxPresentations, fmt.Errorf("not patched after %d presentations", maxPresentations)
}

func (r *repairEnv) op(i int, tr *tracer) (outcome, error) {
	c := &r.cases[i]
	s := r.base
	if c.ex.NeedsExpandedCorpus {
		s = r.expanded
	}
	var reg *obs.Registry
	if tr != nil {
		reg = obs.New()
		traced := *s
		traced.Obs = obs.NewTracer(reg)
		s = &traced
	}
	cv, err := s.ClearView(c.ex.NeedsStackScope)
	if err != nil {
		return outcome{}, err
	}
	presentations, err := campaign(cv, c.input, tr)
	if tr != nil {
		recordCases(cv, reg, tr)
	}
	if err != nil {
		return outcome{}, fmt.Errorf("%s: %w", c.ex.Bugzilla, err)
	}
	return outcome{presentations: presentations, patches: 1}, checkCampaign(c.ex.Bugzilla, presentations, c.pinned)
}

// recordCases reads what the campaign's failure cases and the obs
// registry say each layer did.
func recordCases(cv *core.ClearView, reg *obs.Registry, tr *tracer) {
	for _, fc := range cv.Cases() {
		m := fc.Metrics
		tr.add("correlate.check_execs", float64(m.CheckExecs))
		tr.add("correlate.check_run_ms", ms(m.CheckRunTime))
		tr.add("correlate.build_checks_ms", ms(m.BuildChecks))
		tr.add("repair.candidates", float64(m.RepairCount))
		tr.add("repair.build_ms", ms(m.BuildRepairs))
		tr.add("evaluate.unsuccessful", float64(m.Unsuccessful))
		tr.add("evaluate.repair_run_ms", ms(m.RepairRunTime))
	}
	snap := reg.Snapshot()
	tr.stage(&snap, "node.execute", "vm.run", "core.execute")
	tr.stage(&snap, "evaluate", "core.evaluate", "core.execute")
	tr.stage(&snap, "detect", "core.detect", "core.execute")
	tr.stage(&snap, "correlate", "core.correlate", "core.evaluate")
}

// ms converts a program-reported duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// checkCampaign requires the exploit patched on its pinned presentation:
// a pipeline that patches later is slower to protect, however fast it runs.
func checkCampaign(id string, presentations, pinned int) error {
	if presentations != pinned {
		return fmt.Errorf("%s patched after %d presentations, pinned at %d", id, presentations, pinned)
	}
	return nil
}
