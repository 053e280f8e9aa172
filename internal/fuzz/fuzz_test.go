package fuzz_test

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/redteam"
	"repro/internal/replay"
)

// Shared expensive fixture: the built webapp + learned invariants, plus
// the ground-truth failure location of every seeded defect.
var (
	fixOnce   sync.Once
	fixSetup  *redteam.Setup
	fixTruth  map[uint32]string // failure PC -> Bugzilla id
	fixSeeds  [][]byte          // the thirteen attack inputs + benign pages
	fixErr    error
	fixErrMsg string
)

func campaignFixture(t *testing.T) (*redteam.Setup, [][]byte, map[uint32]string) {
	t.Helper()
	fixOnce.Do(func() {
		fixSetup, fixErr = redteam.NewSetup(false)
		if fixErr != nil {
			fixErrMsg = "setup: " + fixErr.Error()
			return
		}
		fixTruth = make(map[uint32]string)
		for _, ex := range redteam.AllExploits() {
			_, res, err := redteam.RecordAttack(fixSetup, ex, 0)
			if err != nil {
				fixErr, fixErrMsg = err, "record "+ex.Bugzilla+": "+err.Error()
				return
			}
			if res.Failure == nil {
				fixErrMsg = "exploit " + ex.Bugzilla + " was not monitor-detected"
				return
			}
			fixTruth[res.Failure.PC] = ex.Bugzilla
			fixSeeds = append(fixSeeds, redteam.AttackInput(fixSetup.App, ex, 0))
		}
		fixSeeds = append(fixSeeds, redteam.EvaluationPages()[:4]...)
	})
	if fixErrMsg != "" {
		t.Fatal(fixErrMsg)
	}
	return fixSetup, fixSeeds, fixTruth
}

func newCampaign(t *testing.T, setup *redteam.Setup, seeds [][]byte, seed int64) *fuzz.Fuzzer {
	t.Helper()
	f, err := fuzz.New(fuzz.Config{Image: setup.App.Image, Seeds: seeds, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCampaignRediscoversSeededDefects is the acceptance gate: with a
// fixed seed and a bounded iteration budget, the fuzzer must rediscover
// failing inputs for at least 11 of the 13 seeded webapp defects —
// including the extended failure classes (divide-by-zero, unaligned
// access, runaway loop) — and, beyond the bar, produce byte-distinct
// failing variants of them.
func TestCampaignRediscoversSeededDefects(t *testing.T) {
	setup, seeds, truth := campaignFixture(t)
	if len(truth) != 13 {
		t.Fatalf("ground truth has %d distinct defect locations, want 13", len(truth))
	}
	f := newCampaign(t, setup, seeds, 1)
	if err := f.Run(300); err != nil {
		t.Fatal(err)
	}

	rediscovered := 0
	variants := 0
	for _, fd := range f.Findings() {
		if _, ok := truth[fd.PC]; ok {
			rediscovered++
			variants += fd.Variants
		}
	}
	if rediscovered < 11 {
		t.Fatalf("rediscovered %d/13 seeded defects within budget, want >= 11", rediscovered)
	}
	if variants == 0 {
		t.Fatal("no byte-distinct failing variants generated for any seeded defect")
	}
	if f.CorpusLen() <= len(seeds) {
		t.Fatalf("corpus never grew past the seeds: %d entries", f.CorpusLen())
	}
	if f.Coverage().EdgeCount() == 0 {
		t.Fatal("no edge coverage accumulated")
	}
	t.Logf("rediscovered %d/13 defects, %d findings total, %d variants, corpus %d, edges %d",
		rediscovered, len(f.Findings()), variants, f.CorpusLen(), f.Coverage().EdgeCount())
}

// TestCampaignReproducible: same config + same seed ⇒ same corpus
// (bit-for-bit), same coverage counters, same findings. This is the
// property that makes fuzz corpora shippable artifacts.
func TestCampaignReproducible(t *testing.T) {
	setup, seeds, _ := campaignFixture(t)
	run := func() *fuzz.Fuzzer {
		f := newCampaign(t, setup, seeds, 99)
		if err := f.Run(250); err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b := run(), run()

	if af, bf := a.Fingerprint(), b.Fingerprint(); af != bf {
		t.Fatalf("fingerprints differ: %#x vs %#x", af, bf)
	}
	if a.CorpusLen() != b.CorpusLen() {
		t.Fatalf("corpus sizes differ: %d vs %d", a.CorpusLen(), b.CorpusLen())
	}
	for i, in := range a.Corpus() {
		if !bytes.Equal(in, b.Corpus()[i]) {
			t.Fatalf("corpus entry %d differs between identically seeded campaigns", i)
		}
	}
	if ah, bh := a.Coverage().Hash(), b.Coverage().Hash(); ah != bh {
		t.Fatalf("coverage differs: %#x vs %#x", ah, bh)
	}
	if len(a.Findings()) != len(b.Findings()) {
		t.Fatalf("finding counts differ: %d vs %d", len(a.Findings()), len(b.Findings()))
	}
	for i, fa := range a.Findings() {
		fb := b.Findings()[i]
		if fa.PC != fb.PC || fa.Iter != fb.Iter || fa.Variants != fb.Variants {
			t.Fatalf("finding %d differs: %+v vs %+v", i, fa, fb)
		}
	}
}

// TestBenignSeedsDiscoverDefects is the fuzzer earning its keep: seeded
// only with legitimate pages (no attack bytes at all), coverage guidance
// must mutate its way into a majority of the seeded defects — and into
// failure locations the Red Team corpus never reached.
func TestBenignSeedsDiscoverDefects(t *testing.T) {
	setup, _, truth := campaignFixture(t)
	seeds := redteam.LearningPages()[:4]
	seeds = append(seeds, redteam.EvaluationPages()[:4]...)
	f := newCampaign(t, setup, seeds, 1)
	if err := f.Run(1500); err != nil {
		t.Fatal(err)
	}
	defects, novel := 0, 0
	for _, fd := range f.Findings() {
		if _, ok := truth[fd.PC]; ok {
			defects++
		} else {
			novel++
		}
	}
	if defects < 8 {
		t.Fatalf("benign-seed campaign found %d/13 seeded defects, want >= 8", defects)
	}
	if novel < 1 {
		t.Fatal("benign-seed campaign found no failure locations beyond the seeded defects")
	}
	t.Logf("benign seeds: %d seeded defects + %d novel failure locations in %d iters",
		defects, novel, f.Iters())
}

// TestNewFailureClassFingerprintDeterminism: a campaign seeded only with
// the extended-class attacks (divide-by-zero, unaligned access, runaway
// loop) must capture all three as findings under their new monitors, and
// the whole campaign — including the hang executions, whose step budget
// is part of the machine configuration — must fingerprint identically on
// a re-run.
func TestNewFailureClassFingerprintDeterminism(t *testing.T) {
	setup, _, _ := campaignFixture(t)
	var seeds [][]byte
	for _, ex := range redteam.NewClassExploits() {
		seeds = append(seeds, redteam.AttackInput(setup.App, ex, 0))
	}
	run := func() *fuzz.Fuzzer {
		f := newCampaign(t, setup, seeds, 7)
		if err := f.Run(60); err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b := run(), run()
	if af, bf := a.Fingerprint(), b.Fingerprint(); af != bf {
		t.Fatalf("fingerprints differ across identical new-class campaigns: %#x vs %#x", af, bf)
	}
	monitors := map[string]int{}
	for _, fd := range a.Findings() {
		monitors[fd.Monitor]++
		if fd.Recording == nil {
			t.Fatalf("finding %#x (%s) has no recording", fd.PC, fd.Monitor)
		}
		res, err := fd.Recording.Replay(nil, "")
		if err != nil {
			t.Fatal(err)
		}
		if res.Failure == nil || res.Failure.PC != fd.PC || res.Failure.Monitor != fd.Monitor {
			t.Fatalf("recording for %s@%#x replayed to %+v", fd.Monitor, fd.PC, res)
		}
	}
	if monitors["FaultGuard"] < 2 || monitors["HangGuard"] < 1 {
		t.Fatalf("new-class campaign findings missing detectors: %v", monitors)
	}
}

// TestFindingRecordingReplays: the captured recording is the shippable
// artifact — replaying it must reproduce the same failure at the same
// location, deterministically, and vetting it must confirm every claim
// sealed from the fuzz run (outcome, exit code, steps, failure PC and
// monitor).
func TestFindingRecordingReplays(t *testing.T) {
	setup, seeds, _ := campaignFixture(t)
	f := newCampaign(t, setup, seeds, 1)
	if err := f.Run(len(seeds)); err != nil {
		t.Fatal(err)
	}
	if len(f.Findings()) == 0 {
		t.Fatal("no findings after running all seeds")
	}
	for _, fd := range f.Findings() {
		if fd.Recording == nil {
			t.Fatalf("finding %#x has no recording", fd.PC)
		}
		res, err := fd.Recording.Replay(nil, "")
		if err != nil {
			t.Fatal(err)
		}
		if res.Failure == nil || res.Failure.PC != fd.PC {
			t.Fatalf("recording for %#x replayed to %+v", fd.PC, res)
		}
		if err := (&replay.Farm{}).Vet(fd.Recording); err != nil {
			t.Fatalf("recording for %#x: %v", fd.PC, err)
		}
	}
}

// TestDrivePipelineRepairs: fuzzer output is pipeline input. A finding
// fed through a replay-enabled ClearView must converge to an adopted
// repair in two presentations (record + farm on the first, survive on
// the second).
func TestDrivePipelineRepairs(t *testing.T) {
	setup, seeds, truth := campaignFixture(t)
	f := newCampaign(t, setup, seeds, 1)
	if err := f.Run(len(seeds)); err != nil {
		t.Fatal(err)
	}
	var target *fuzz.Finding
	for _, fd := range f.Findings() {
		if truth[fd.PC] == "290162" {
			target = fd
			break
		}
	}
	if target == nil {
		t.Fatal("no finding for defect 290162 among the seeds")
	}
	cv, err := setup.ReplayClearView(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	states := fuzz.DrivePipeline(cv, []*fuzz.Finding{target}, 2)
	if states[target.PC] != core.StatePatched {
		t.Fatalf("pipeline state for %#x is %v, want patched", target.PC, states[target.PC])
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := fuzz.New(fuzz.Config{}); err == nil {
		t.Fatal("nil image accepted")
	}
	setup, _, _ := campaignFixture(t)
	if _, err := fuzz.New(fuzz.Config{Image: setup.App.Image}); err == nil {
		t.Fatal("empty seed corpus accepted")
	}
}

// TestCrashesAreCountedNotCaptured: mutated garbage often crashes without
// a monitor detection; those runs must be accounted for but produce no
// findings (the paper's taxonomy: a finding is a monitor-detected
// failure).
func TestCrashesAreCountedNotCaptured(t *testing.T) {
	setup, _, _ := campaignFixture(t)
	// A monitor-free configuration turns every exploit into a crash.
	mons := replay.Monitors{}
	f, err := fuzz.New(fuzz.Config{
		Image:    setup.App.Image,
		Seeds:    [][]byte{redteam.AttackInput(setup.App, redteam.Exploits()[0], 0)},
		Seed:     5,
		Monitors: &mons,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(20); err != nil {
		t.Fatal(err)
	}
	if len(f.Findings()) != 0 {
		t.Fatalf("monitor-free campaign produced %d findings", len(f.Findings()))
	}
	if f.Crashes() == 0 {
		t.Fatal("monitor-free campaign counted no crashes")
	}
}
