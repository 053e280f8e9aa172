// Package fuzz implements a coverage-guided exploit-variant fuzzer over
// the deterministic machine. ClearView's §4 evaluation is gated on a fixed
// Red Team corpus of ten known exploits; the fuzzer turns that corpus into
// a generator of scenario diversity: it mutates the Red Team inputs (and
// any benign seeds) against the protected application, steered by the
// per-basic-block edge coverage the code cache records (vm.Coverage), and
// captures every novel monitor-detected failure as a replay.Recording —
// exactly the artifact the replay farm and the community manager already
// consume (internal/replay, MsgRecording). The simulated machine is fully
// deterministic, so the machine itself is the oracle: "does this input
// fail?" costs one run and always answers the same way.
//
// Determinism is a design requirement, not an accident: the fuzzer draws
// every decision from one seeded RNG, iterates coverage only in sorted
// order, and keeps its corpus and findings in discovery order, so a
// campaign with a fixed seed reproduces bit-for-bit — same corpus, same
// coverage counters, same findings (see Fingerprint).
package fuzz

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/replay"
	"repro/internal/vm"
)

// DefaultMaxSteps bounds each fuzz execution. Mutated inputs can loop; a
// tight budget keeps throughput high (the Red Team attacks run well under
// a million steps).
const DefaultMaxSteps = 2_000_000

// DefaultMaxInput caps mutated input size so splices and duplications
// cannot snowball.
const DefaultMaxInput = 4096

// Config assembles a fuzzing campaign.
type Config struct {
	Image *image.Image
	// Seeds are the initial corpus — typically the Red Team attack inputs
	// plus a few benign pages for path diversity. Seeds are executed
	// unmutated first (establishing baseline coverage and findings),
	// then mutated.
	Seeds [][]byte
	// Seed seeds the campaign RNG; campaigns with equal seeds and equal
	// configs reproduce bit-for-bit.
	Seed int64
	// Monitors during fuzz executions; nil means replay.AllMonitors.
	Monitors *replay.Monitors
	// MaxSteps bounds each execution; 0 selects DefaultMaxSteps.
	MaxSteps uint64
	// MaxInput caps mutated input length; 0 selects DefaultMaxInput.
	MaxInput int
}

func (c Config) monitors() replay.Monitors {
	if c.Monitors == nil {
		return replay.AllMonitors()
	}
	return *c.Monitors
}

// Finding is one discovered failure location with the first input that
// reached it, captured as a deterministic recording ready for the replay
// farm or a community MsgRecording upload.
type Finding struct {
	PC      uint32
	Monitor string
	Kind    string
	Input   []byte
	// Recording is the fuzz execution that discovered the finding, sealed:
	// it replays bit-identically (same monitors, same step budget).
	Recording *replay.Recording
	// Iter is the campaign iteration (0-based) that discovered the PC.
	Iter int
	// Variants counts additional, byte-distinct failing inputs observed
	// at the same location later in the campaign.
	Variants int
}

// bucketKey is one (edge, hit-count bucket) coverage coordinate — the
// AFL-style signal that distinguishes "loop ran twice" from "loop ran
// 100 times" without treating every count as novel.
type bucketKey struct {
	edge   vm.Edge
	bucket uint8
}

// bucketize maps a hit count to its coarse bucket (1, 2, 3, 4-7, 8-15,
// 16-31, 32-127, 128+).
func bucketize(n uint64) uint8 {
	switch {
	case n <= 3:
		return uint8(n)
	case n <= 7:
		return 4
	case n <= 15:
		return 5
	case n <= 31:
		return 6
	case n <= 127:
		return 7
	default:
		return 8
	}
}

// Fuzzer runs one deterministic campaign.
type Fuzzer struct {
	conf Config
	rng  *rand.Rand

	global  *vm.Coverage
	buckets map[bucketKey]struct{}

	corpus   [][]byte
	seedIdx  int
	findings []*Finding
	byPC     map[uint32]*Finding

	iters    int
	failures int // total failing executions (including rediscoveries)
	crashes  int // non-monitor terminations observed
}

// New builds a fuzzer. The seed corpus must be non-empty.
func New(conf Config) (*Fuzzer, error) {
	if conf.Image == nil {
		return nil, fmt.Errorf("fuzz: nil image")
	}
	if len(conf.Seeds) == 0 {
		return nil, fmt.Errorf("fuzz: empty seed corpus")
	}
	if conf.MaxSteps == 0 {
		conf.MaxSteps = DefaultMaxSteps
	}
	if conf.MaxInput <= 0 {
		conf.MaxInput = DefaultMaxInput
	}
	return &Fuzzer{
		conf:    conf,
		rng:     rand.New(rand.NewSource(conf.Seed)),
		global:  vm.NewCoverage(),
		buckets: make(map[bucketKey]struct{}),
		byPC:    make(map[uint32]*Finding),
	}, nil
}

// newMachine assembles a monitored machine with coverage attached — the
// same monitor stack a community node runs (§4.2.2 plus the extended
// detectors).
func (f *Fuzzer) newMachine(input []byte, cov *vm.Coverage) (*vm.VM, error) {
	plugins, _, _ := f.conf.monitors().Plugins()
	return vm.New(vm.Config{
		Image:    f.conf.Image,
		Input:    input,
		Plugins:  plugins,
		MaxSteps: f.conf.MaxSteps,
		Coverage: cov,
	})
}

// Step executes one campaign iteration: pick or mutate an input, run it,
// fold its coverage into the campaign signal, and capture any novel
// failure as a recording.
func (f *Fuzzer) Step() error {
	var input []byte
	if f.seedIdx < len(f.conf.Seeds) {
		input = append([]byte(nil), f.conf.Seeds[f.seedIdx]...)
		f.seedIdx++
	} else {
		base := f.corpus[f.rng.Intn(len(f.corpus))]
		input = f.mutate(base)
	}

	cov := vm.NewCoverage()
	machine, err := f.newMachine(input, cov)
	if err != nil {
		return err
	}
	res := machine.Run()
	f.iters++

	// Coverage signal: any (edge, bucket) coordinate not seen before
	// earns the input a place in the corpus. Iteration over cov.Edges()
	// is sorted, so the decision sequence is deterministic.
	novel := false
	for _, e := range cov.Edges() {
		k := bucketKey{edge: e, bucket: bucketize(cov.Hits(e))}
		if _, ok := f.buckets[k]; !ok {
			f.buckets[k] = struct{}{}
			novel = true
		}
	}
	f.global.Merge(cov)
	if novel {
		f.corpus = append(f.corpus, input)
	}

	switch res.Outcome {
	case vm.OutcomeFailure:
		f.failures++
		f.recordFailure(input, res)
	case vm.OutcomeCrash:
		f.crashes++
	case vm.OutcomeExit:
		if res.ExitCode != 0 {
			f.crashes++
		}
	}
	return nil
}

// recordFailure captures a monitor-detected failure: the first input per
// failure location becomes a Finding whose recording seals the run that
// found it (the fuzz machine runs under the recorded monitors and step
// budget; coverage only observes); later byte-distinct inputs at the same
// location count as variants.
func (f *Fuzzer) recordFailure(input []byte, res vm.RunResult) {
	pc := res.Failure.PC
	if prev, ok := f.byPC[pc]; ok {
		if !bytes.Equal(prev.Input, input) {
			prev.Variants++
		}
		return
	}
	rec := replay.Seal(
		fmt.Sprintf("fuzz/%#x/iter%d", pc, f.iters-1),
		f.conf.Image, input, nil, f.conf.monitors(), f.conf.MaxSteps, res,
	)
	fd := &Finding{
		PC:        pc,
		Monitor:   res.Failure.Monitor,
		Kind:      res.Failure.Kind,
		Input:     input,
		Recording: rec,
		Iter:      f.iters - 1,
	}
	f.byPC[pc] = fd
	f.findings = append(f.findings, fd)
}

// Run executes iters campaign iterations.
func (f *Fuzzer) Run(iters int) error {
	for i := 0; i < iters; i++ {
		if err := f.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Findings returns every discovered failure location in discovery order.
func (f *Fuzzer) Findings() []*Finding { return f.findings }

// Finding returns the finding at a failure location, or nil.
func (f *Fuzzer) Finding(pc uint32) *Finding { return f.byPC[pc] }

// Coverage returns the campaign's cumulative edge coverage.
func (f *Fuzzer) Coverage() *vm.Coverage { return f.global }

// CorpusLen returns the number of coverage-earning inputs retained.
func (f *Fuzzer) CorpusLen() int { return len(f.corpus) }

// Corpus returns the retained inputs in discovery order.
func (f *Fuzzer) Corpus() [][]byte { return f.corpus }

// Iters returns the number of executed iterations.
func (f *Fuzzer) Iters() int { return f.iters }

// Failures returns the total count of failing executions (every
// presentation of every finding, not just novel locations).
func (f *Fuzzer) Failures() int { return f.failures }

// Crashes returns the count of non-monitor terminations (crashes and
// abnormal exits) — inputs the monitors did not classify.
func (f *Fuzzer) Crashes() int { return f.crashes }

// Fingerprint digests the campaign's observable state — corpus bytes in
// order, cumulative coverage, findings (PC, iteration, variants), and
// counters — into one value. Two campaigns with the same config and seed
// must fingerprint identically; the tests assert exactly that.
func (f *Fuzzer) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, in := range f.corpus {
		word(uint64(len(in)))
		h.Write(in)
	}
	word(f.global.Hash())
	for _, fd := range f.findings {
		word(uint64(fd.PC))
		word(uint64(fd.Iter))
		word(uint64(fd.Variants))
	}
	word(uint64(f.iters))
	word(uint64(f.failures))
	word(uint64(f.crashes))
	return h.Sum64()
}

// DrivePipeline feeds each finding into a ClearView pipeline by executing
// its input presentations times — with the replay fast path enabled, the
// first presentation records, farm-judges every candidate repair, and
// deploys the winner, so two presentations suffice for a repairable
// defect. Returns the final case state per failure location. This is how
// fuzzer output becomes evaluation input: the fuzzer generates the
// scenarios, the pipeline consumes them.
func DrivePipeline(cv *core.ClearView, findings []*Finding, presentations int) map[uint32]core.CaseState {
	for _, fd := range findings {
		for i := 0; i < presentations; i++ {
			cv.Execute(fd.Input)
		}
	}
	out := make(map[uint32]core.CaseState, len(findings))
	for _, fd := range findings {
		if fc := cv.Case(fd.PC); fc != nil {
			out[fd.PC] = fc.State
		}
	}
	return out
}
