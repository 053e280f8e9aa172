package replay_test

import (
	"strings"
	"testing"

	"repro/internal/redteam"
	"repro/internal/replay"
	"repro/internal/vm"
)

// vetRecordings builds one honest failing recording and one honest clean
// recording for the vetting tests.
func vetRecordings(t *testing.T) (failing, clean *replay.Recording) {
	t.Helper()
	setup := baseSetup(t)
	ex := exploit(t, "290162")
	attack := redteam.AttackInput(setup.App, ex, 0)
	rec, res, err := replay.Record("vet-fail", setup.App.Image, attack, nil, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure == nil {
		t.Fatal("attack did not fail")
	}
	benign, res, err := replay.Record("vet-clean", setup.App.Image, redteam.EvaluationPages()[0], nil, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != nil {
		t.Fatalf("benign page failed: %+v", res.Failure)
	}
	return rec, benign
}

// TestVetAcceptsHonestRecordings: an unmodified recording — failing or
// clean — always passes, because the machine is deterministic.
func TestVetAcceptsHonestRecordings(t *testing.T) {
	failing, clean := vetRecordings(t)
	farm := &replay.Farm{}
	if err := farm.Vet(failing); err != nil {
		t.Errorf("honest failing recording rejected: %v", err)
	}
	if err := farm.Vet(clean); err != nil {
		t.Errorf("honest clean recording rejected: %v", err)
	}
}

// TestVetRejectsTampering: every tamperable claim — outcome, failure
// location, monitor, step count — is caught by one bare replay.
func TestVetRejectsTampering(t *testing.T) {
	failing, clean := vetRecordings(t)
	img := baseSetup(t).App.Image

	cases := []struct {
		name   string
		rec    replay.Recording // shallow copy to tamper
		tamper func(*replay.Recording)
		want   string
	}{
		{
			name: "clean run relabelled as a failure",
			rec:  *clean,
			tamper: func(r *replay.Recording) {
				r.Outcome = vm.OutcomeFailure
				r.Failure = &vm.Failure{PC: img.Entry, Monitor: "MemoryFirewall", Kind: "forged"}
			},
			want: "outcome",
		},
		{
			name:   "failure location moved",
			rec:    *failing,
			tamper: func(r *replay.Recording) { f := *r.Failure; f.PC = img.Entry; r.Failure = &f },
			want:   "failure at",
		},
		{
			name:   "monitor swapped",
			rec:    *failing,
			tamper: func(r *replay.Recording) { f := *r.Failure; f.Monitor = "HeapGuard"; r.Failure = &f },
			want:   "monitor",
		},
		{
			name:   "step count inflated",
			rec:    *failing,
			tamper: func(r *replay.Recording) { r.Steps += 1000 },
			want:   "steps",
		},
		{
			name:   "failure erased",
			rec:    *failing,
			tamper: func(r *replay.Recording) { r.Outcome = vm.OutcomeExit; r.Failure = nil },
			want:   "outcome",
		},
	}
	farm := &replay.Farm{}
	for _, tc := range cases {
		tc.tamper(&tc.rec)
		err := farm.Vet(&tc.rec)
		if err == nil {
			t.Errorf("%s: tampered recording passed vetting", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
