package webapp_test

import (
	"testing"

	"repro/internal/monitor"
	"repro/internal/redteam"
	"repro/internal/vm"
	"repro/internal/webapp"
)

func bareRun(t *testing.T, app *webapp.App, input []byte, plugins ...vm.Plugin) vm.RunResult {
	t.Helper()
	machine, err := vm.New(vm.Config{Image: app.Image, Input: input, Plugins: plugins})
	if err != nil {
		t.Fatal(err)
	}
	return machine.Run()
}

func TestBuild(t *testing.T) {
	app, err := webapp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(app.Image.Code) < 100*8 {
		t.Errorf("suspiciously small image: %d bytes", len(app.Image.Code))
	}
	for _, label := range []string{
		"main", "render_page", "site_290162", "site_295854", "site_312278",
		"site_269095", "site_320182", "site_296134", "site_325403",
		"site_285595_store", "site_307259_store",
		"site_311710a_call", "site_311710b_call", "site_311710c_call",
	} {
		if _, ok := app.Labels[label]; !ok {
			t.Errorf("missing label %q", label)
		}
	}
}

func TestEmptyInputExitsCleanly(t *testing.T) {
	app := webapp.MustBuild()
	res := bareRun(t, app, nil)
	if res.Outcome != vm.OutcomeExit || res.ExitCode != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestLearningCorpusRenders(t *testing.T) {
	app := webapp.MustBuild()
	res := bareRun(t, app, redteam.LearningCorpus())
	if res.Outcome != vm.OutcomeExit {
		t.Fatalf("learning corpus: %+v", res)
	}
	if len(res.Output) == 0 {
		t.Fatal("no display output")
	}
}

func TestExpandedCorpusRenders(t *testing.T) {
	app := webapp.MustBuild()
	res := bareRun(t, app, redteam.ExpandedCorpus())
	if res.Outcome != vm.OutcomeExit {
		t.Fatalf("expanded corpus: %+v", res)
	}
}

func TestEvaluationPagesRender(t *testing.T) {
	app := webapp.MustBuild()
	for i, page := range redteam.EvaluationPages() {
		res := bareRun(t, app, page)
		if res.Outcome != vm.OutcomeExit {
			t.Fatalf("evaluation page %d: %+v", i, res)
		}
	}
}

func TestCorpusRendersUnderMonitors(t *testing.T) {
	// The monitors must not perturb legitimate executions (no false
	// positives, identical display).
	app := webapp.MustBuild()
	plain := bareRun(t, app, redteam.LearningCorpus())
	guarded, err := vm.New(vm.Config{
		Image: app.Image, Input: redteam.LearningCorpus(),
		Plugins: []vm.Plugin{monitor.NewShadowStack(), monitor.NewMemoryFirewall(), monitor.NewHeapGuard()},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := guarded.Run()
	if res.Outcome != vm.OutcomeExit {
		t.Fatalf("monitors fired on legitimate input: %+v", res)
	}
	if string(res.Output) != string(plain.Output) {
		t.Error("display differs under monitors")
	}
}

// TestExploitsCompromiseUnprotected verifies each exploit "works" on the
// unprotected application (§4.2: "verified to successfully exploit a
// vulnerability in the unprotected version"). Control-flow exploits divert
// execution into injected data, which the simulation surfaces as an
// abnormal termination. The heap-overflow exploits corrupt memory
// silently — demonstrated by running the same input under Heap Guard
// alone, which observes the out-of-bounds writes.
func TestExploitsCompromiseUnprotected(t *testing.T) {
	app := webapp.MustBuild()
	heapClass := map[string]bool{"285595": true, "307259": true, "325403": true}
	for _, ex := range redteam.Exploits() {
		input := redteam.AttackInput(app, ex, 0)
		if heapClass[ex.Bugzilla] {
			res := bareRun(t, app, input, monitor.NewHeapGuard())
			if res.Outcome != vm.OutcomeFailure {
				t.Errorf("%s: no out-of-bounds writes observed: %+v", ex.Bugzilla, res)
			}
			continue
		}
		res := bareRun(t, app, input)
		if res.Outcome == vm.OutcomeExit {
			t.Errorf("%s: exploit has no effect on the unprotected app", ex.Bugzilla)
		}
	}
}

// TestExploitsBlockedByMonitors verifies the monitors detect every attack
// at the expected failure site ("ClearView detected and blocked all
// attacks" — §4.3).
func TestExploitsBlockedByMonitors(t *testing.T) {
	app := webapp.MustBuild()
	wantSite := map[string]string{
		"269095": "site_269095",
		"285595": "site_285595_store",
		"290162": "site_290162",
		"295854": "site_295854",
		"296134": "site_296134",
		"307259": "site_307259_store",
		"311710": "site_311710a_call",
		"312278": "site_312278",
		"320182": "site_320182",
		"325403": "site_325403",
	}
	wantMonitor := map[string]string{
		"285595": "HeapGuard",
		"307259": "HeapGuard",
		"325403": "HeapGuard",
	}
	for _, ex := range redteam.Exploits() {
		machine, err := vm.New(vm.Config{
			Image: app.Image, Input: redteam.AttackInput(app, ex, 0),
			Plugins: []vm.Plugin{monitor.NewShadowStack(), monitor.NewMemoryFirewall(), monitor.NewHeapGuard()},
		})
		if err != nil {
			t.Fatal(err)
		}
		res := machine.Run()
		if res.Outcome != vm.OutcomeFailure {
			t.Errorf("%s: not blocked: %+v", ex.Bugzilla, res)
			continue
		}
		if site := app.Labels[wantSite[ex.Bugzilla]]; res.Failure.PC != site {
			t.Errorf("%s: failure at %#x, want %s (%#x)",
				ex.Bugzilla, res.Failure.PC, wantSite[ex.Bugzilla], site)
		}
		wantMon := wantMonitor[ex.Bugzilla]
		if wantMon == "" {
			wantMon = "MemoryFirewall"
		}
		if res.Failure.Monitor != wantMon {
			t.Errorf("%s: detected by %s, want %s", ex.Bugzilla, res.Failure.Monitor, wantMon)
		}
		if len(res.Failure.Stack) == 0 {
			t.Errorf("%s: no shadow stack at failure", ex.Bugzilla)
		}
	}
}
