package webapp_test

import (
	"bytes"
	"testing"

	"repro/internal/monitor"
	"repro/internal/replay"
	"repro/internal/vm"
	"repro/internal/webapp"
)

// fuzzApp is built once per fuzz process; the image is immutable.
var fuzzApp = webapp.MustBuild()

// page frames a body with its little-endian length prefix.
func page(body ...byte) []byte {
	out := []byte{byte(len(body)), byte(len(body) >> 8)}
	return append(out, body...)
}

// runOnce executes one input under the full detector set with a tight
// step budget (mutated inputs may loop; the hang watchdog keeps every
// execution bounded far below the hard step limit).
func runOnce(t *testing.T, input []byte) vm.RunResult {
	t.Helper()
	mons := replay.AllMonitors()
	mons.HangBudget = 50_000
	plugins, _, _ := mons.Plugins()
	machine, err := vm.New(vm.Config{
		Image:    fuzzApp.Image,
		Input:    input,
		Plugins:  plugins,
		MaxSteps: 400_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return machine.Run()
}

// FuzzRenderPage feeds arbitrary byte streams to the page renderer under
// the full detector set and checks the taxonomy contract the whole
// pipeline rests on: every run terminates inside the step budget with a
// classified outcome, every monitor-detected failure names a deployed
// detector at an in-image location, and the machine is deterministic —
// the same input reproduces the same outcome, step count, and display.
func FuzzRenderPage(f *testing.F) {
	f.Add([]byte{})
	f.Add(page(0x01, 3, 'a', 'b', 'c'))                         // text
	f.Add(page(0x02, 3, 3, 0xFF, 65, 66, 67, 68))               // gif, negative ext offset
	f.Add(page(0x06, 6, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9))          // str, trailer > total
	f.Add(page(0x0A, 64, 9))                                    // scale, benign divisor
	f.Add(page(0x0A, 64, 8))                                    // scale, zero divisor (div-zero)
	f.Add(page(0x0B, 2, 8))                                     // walk, aligned stride
	f.Add(page(0x0B, 2, 6))                                     // walk, misaligned stride (unaligned)
	f.Add(page(0x0C, 9, 7))                                     // loop, terminating
	f.Add(page(0x0C, 41, 16))                                   // loop, zero stride (hang-loop)
	f.Add(page(0x0A, 64, 8, 0x0B, 2, 6, 0x0C, 41, 16))          // all three defects on one page
	f.Add(append(page(0x01, 2, 'h', 'i'), page(0x0C, 5, 4)...)) // two framed pages
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > 2048 {
			input = input[:2048]
		}
		res := runOnce(t, input)
		switch res.Outcome {
		case vm.OutcomeExit, vm.OutcomeCrash:
		case vm.OutcomeFailure:
			f := res.Failure
			if f == nil {
				t.Fatal("failure outcome without a failure record")
			}
			known := false
			for _, name := range monitor.DetectorNames {
				known = known || f.Monitor == name
			}
			if !known {
				t.Fatalf("failure names unknown monitor %q", f.Monitor)
			}
			if !fuzzApp.Image.Contains(f.PC) {
				t.Fatalf("failure location %#x outside the image", f.PC)
			}
		default:
			t.Fatalf("unclassified outcome %v", res.Outcome)
		}
		again := runOnce(t, input)
		if again.Outcome != res.Outcome || again.Steps != res.Steps || !bytes.Equal(again.Output, res.Output) {
			t.Fatalf("nondeterministic run: (%v, %d steps) vs (%v, %d steps)",
				res.Outcome, res.Steps, again.Outcome, again.Steps)
		}
	})
}

// TestFuzzSeedsCoverNewFailureClasses pins the seed corpus itself: the
// three attack-shaped seeds must reach their detectors (so the fuzz
// corpus genuinely exercises the new failure classes, not just parse
// paths).
func TestFuzzSeedsCoverNewFailureClasses(t *testing.T) {
	cases := []struct {
		input   []byte
		monitor string
		kind    string
	}{
		{page(0x0A, 64, 8), "FaultGuard", "divide by zero"},
		{page(0x0B, 2, 6), "FaultGuard", "unaligned access"},
		{page(0x0C, 41, 16), "HangGuard", "runaway loop"},
	}
	for _, tc := range cases {
		res := runOnce(t, tc.input)
		if res.Outcome != vm.OutcomeFailure || res.Failure.Monitor != tc.monitor || res.Failure.Kind != tc.kind {
			t.Errorf("seed for %s/%s produced %+v", tc.monitor, tc.kind, res)
		}
	}
	_ = monitor.DefaultHangBudget // the 50k fuzz budget must stay below it
	if uint64(50_000) >= monitor.DefaultHangBudget {
		t.Error("fuzz hang budget should undercut the production default")
	}
}
