// Package replay implements deterministic record/replay of protected
// executions and a parallel patch-evaluation farm built on it.
//
// ClearView's live pipeline (internal/core) judges candidate repair
// patches only on *subsequent* executions, so convergence to a correct
// patch is gated on how often the failure recurs in production: run 1
// detects, runs 2–3 check correlated invariants, runs 4+ try candidate
// repairs one at a time. The simulated machine is fully deterministic —
// same image, same input, same patches ⇒ same execution — which makes a
// recorded failing run a perfect offline test bench. A Recording is what
// a replay reads — the image, the input stream, the deployed patch set,
// the monitor configuration and the step budget — and the outcome the run
// claims. Every replay builds a fresh machine from it and runs from step
// 0: a Farm replays the recording under every candidate patch concurrently
// and feeds the verdicts into internal/evaluate, so the checking phase and
// the repair ranking collapse into the first failing wall-clock
// presentation.
//
// Recordings are gob-serializable: community nodes ship failing runs to
// the manager (see internal/community's MsgRecording), which evaluates
// repairs centrally instead of assigning one candidate per node and
// waiting for live recurrences.
package replay

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/daikon"
	"repro/internal/image"
	"repro/internal/monitor"
	"repro/internal/repair"
	"repro/internal/vm"
)

// Monitors selects the failure detectors active during a recorded run and
// its replays. Replays must run under the same monitor configuration as
// the recording for detection parity — including the hang budget, since a
// replayed hang must fire at the same block as the recorded one.
type Monitors struct {
	MemoryFirewall bool // illegal-write detection (§2.3)
	HeapGuard      bool // heap canary checking
	ShadowStack    bool // return-address integrity
	FaultGuard     bool // arithmetic faults (divide by zero, unaligned access)
	HangGuard      bool // runaway-loop step-budget watchdog
	// HangBudget is the HangGuard step budget; 0 selects
	// monitor.DefaultHangBudget when HangGuard is armed.
	HangBudget uint64
}

// AllMonitors is the full detector set: the Red Team configuration
// (§4.2.2) plus the arithmetic-fault and hang detectors, the default
// everywhere.
func AllMonitors() Monitors {
	return Monitors{
		MemoryFirewall: true, HeapGuard: true, ShadowStack: true,
		FaultGuard: true, HangGuard: true,
	}
}

// Plugins materializes the selected detectors as machine plugins. vm.New
// installs each one that wires itself into the machine (the shadow stack
// as stack provider, the hang watch, the firewall's dispatch validator),
// so the plugin list is all a machine builder needs. The second and third
// results are the shadow stack and the hang guard among them, nil when
// unselected; installing them again after vm.New changes nothing. Every
// machine builder that runs under a Monitors value — recording, replay,
// fuzzing, community nodes — assembles its detector stack here so the
// configuration can never drift between the recorder and the replayer.
func (m Monitors) Plugins() ([]vm.Plugin, *monitor.ShadowStack, *monitor.HangGuard) {
	var plugins []vm.Plugin
	var shadow *monitor.ShadowStack
	var hang *monitor.HangGuard
	if m.ShadowStack {
		shadow = monitor.NewShadowStack()
		plugins = append(plugins, shadow)
	}
	if m.MemoryFirewall {
		plugins = append(plugins, monitor.NewMemoryFirewall())
	}
	if m.HeapGuard {
		plugins = append(plugins, monitor.NewHeapGuard())
	}
	if m.FaultGuard {
		plugins = append(plugins, monitor.NewFaultGuard())
	}
	if m.HangGuard {
		hang = &monitor.HangGuard{Budget: m.HangBudget}
		plugins = append(plugins, hang)
	}
	return plugins, shadow, hang
}

// PatchSpec is the declarative form of one deployed repair — the same
// shape the community protocol ships (a recording must be self-contained:
// the failing run may have executed under adopted patches for other
// failure locations, and a faithful replay needs them in place).
type PatchSpec struct {
	FailureID string           // the failure case the repair targets
	Invariant daikon.Invariant // the invariant the repair enforces
	Strategy  repair.Strategy  // enforcement strategy (§2.5)
	Value     uint32           // strategy operand (e.g. the set-value constant)
	SPDelta   uint32           // stack-pointer restore for return-from-procedure
	PC        uint32           // enforcement site
	Depth     int              // call-stack depth of the enforcement site
}

// Spec captures a deployed repair as a self-contained PatchSpec.
func Spec(failureID string, r *repair.Repair) PatchSpec {
	return PatchSpec{
		FailureID: failureID,
		Invariant: *r.Inv,
		Strategy:  r.Strategy,
		Value:     r.Value,
		SPDelta:   r.SPDelta,
		PC:        r.PC,
		Depth:     r.Depth,
	}
}

// Repair reconstructs the repair object a spec describes.
func (s *PatchSpec) Repair() *repair.Repair {
	inv := s.Invariant
	return &repair.Repair{
		Inv:      &inv,
		Strategy: s.Strategy,
		Value:    s.Value,
		SPDelta:  s.SPDelta,
		PC:       s.PC,
		Depth:    s.Depth,
	}
}

// Recording is one captured execution, self-contained and serializable:
// everything needed to re-create the run bit-identically on another
// machine, and the outcome the run claims.
type Recording struct {
	ID       string      // human-readable label ("node/seqN")
	Image    []byte      // image.Marshal form
	Input    []byte      // the exact input stream the run consumed
	Deployed []PatchSpec // repairs in place during the recorded run
	Monitors Monitors    // monitor configuration of the recorded machine
	MaxSteps uint64      // step budget of the recorded machine

	// How the recorded run ended.
	Outcome  vm.Outcome
	ExitCode uint32      // see Outcome
	Failure  *vm.Failure // see Outcome
	Steps    uint64      // see Outcome
}

// FailurePC returns the recorded failure location, if the run failed.
func (r *Recording) FailurePC() (uint32, bool) {
	if r.Failure == nil {
		return 0, false
	}
	return r.Failure.PC, true
}

// Marshal serializes the recording (gob).
func (r *Recording) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		return nil, fmt.Errorf("replay: encode recording: %w", err)
	}
	return buf.Bytes(), nil
}

// Unmarshal deserializes a recording.
func Unmarshal(b []byte) (*Recording, error) {
	var r Recording
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&r); err != nil {
		return nil, fmt.Errorf("replay: decode recording: %w", err)
	}
	return &r, nil
}

// Seal packages a finished run into a Recording: what the machine ran
// under — image, input, deployed patches, monitors and step budget — and
// how the run ended. The input and patch list are copied, so the caller
// may reuse its own. maxSteps 0 records vm.DefaultMaxSteps, the budget
// the machine ran under. Plugins that only observe (a tracer, the CFG
// builder, edge coverage) may have ridden along: a replay without them
// runs the same way.
func Seal(id string, img *image.Image, input []byte, deployed []PatchSpec, mons Monitors, maxSteps uint64, res vm.RunResult) *Recording {
	if maxSteps == 0 {
		maxSteps = vm.DefaultMaxSteps
	}
	return &Recording{
		ID:       id,
		Image:    img.Marshal(),
		Input:    append([]byte(nil), input...),
		Deployed: append([]PatchSpec(nil), deployed...),
		Monitors: mons,
		MaxSteps: maxSteps,
		Outcome:  res.Outcome,
		ExitCode: res.ExitCode,
		Failure:  res.Failure,
		Steps:    res.Steps,
	}
}

// Options configures Record.
type Options struct {
	// Monitors during the run; the zero value means AllMonitors.
	Monitors *Monitors
	// MaxSteps bounds the run; 0 selects vm.DefaultMaxSteps.
	MaxSteps uint64
}

func (o Options) monitors() Monitors {
	if o.Monitors == nil {
		return AllMonitors()
	}
	return *o.Monitors
}

// Record executes input against img under the given deployed patches and
// monitors and returns the sealed recording together with the run's
// result. Recording a run that does not fail is legal (the recording
// documents a healthy baseline); the Farm only requires a recorded failure
// for its Recurred verdicts.
func Record(id string, img *image.Image, input []byte, deployed []PatchSpec, opts Options) (*Recording, vm.RunResult, error) {
	mons := opts.monitors()
	machine, err := newMachine(img, input, mons, compileSpecs(deployed, ""), opts.MaxSteps)
	if err != nil {
		return nil, vm.RunResult{}, err
	}
	res := machine.Run()
	return Seal(id, img, input, deployed, mons, opts.MaxSteps, res), res, nil
}

// newMachine assembles a machine with the monitor set and patches.
func newMachine(img *image.Image, input []byte, mons Monitors, patches []*vm.Patch, maxSteps uint64) (*vm.VM, error) {
	plugins, _, _ := mons.Plugins()
	return vm.New(vm.Config{
		Image:    img,
		Input:    input,
		Plugins:  plugins,
		Patches:  patches,
		MaxSteps: maxSteps,
	})
}

// compileSpecs turns deployed patch specs into machine patches, skipping
// the specs belonging to excludeFailureID (the case whose candidates are
// being evaluated must not also run its previously deployed repair).
func compileSpecs(specs []PatchSpec, excludeFailureID string) []*vm.Patch {
	var out []*vm.Patch
	for i := range specs {
		if excludeFailureID != "" && specs[i].FailureID == excludeFailureID {
			continue
		}
		r := specs[i].Repair()
		out = append(out, r.BuildPatches(specs[i].FailureID)...)
	}
	return out
}

// DecodeImage returns the recording's binary image.
func (r *Recording) DecodeImage() (*image.Image, error) {
	return image.Unmarshal(r.Image)
}

// NewMachine builds a fresh machine configured exactly as the recorded one
// (image, input, monitors, deployed patches, step budget), with extra
// patches layered on top and the patches of excludeFailureID left out.
// Running it replays the recording deterministically — modulo whatever
// behaviour the extra patches change, which is the point.
func (r *Recording) NewMachine(img *image.Image, extra []*vm.Patch, excludeFailureID string) (*vm.VM, error) {
	if img == nil {
		var err error
		img, err = r.DecodeImage()
		if err != nil {
			return nil, err
		}
	}
	patches := compileSpecs(r.Deployed, excludeFailureID)
	patches = append(patches, extra...)
	return newMachine(img, r.Input, r.Monitors, patches, r.MaxSteps)
}

// Replay re-executes the recording from the start under extra patches.
func (r *Recording) Replay(extra []*vm.Patch, excludeFailureID string) (vm.RunResult, error) {
	machine, err := r.NewMachine(nil, extra, excludeFailureID)
	if err != nil {
		return vm.RunResult{}, err
	}
	return machine.Run(), nil
}
