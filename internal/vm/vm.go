// Package vm implements the managed program execution environment — the
// analog of the Determina/DynamoRIO substrate ClearView builds on (§2.1).
//
// All application code executes out of a basic-block code cache. Plugins
// are given each block once, as it enters the cache, and may attach hooks
// to individual instructions (instrumentation). Patches attach hooks to
// instruction addresses through the patch manager and can be applied to and
// removed from a *running* machine; affected blocks are ejected from the
// cache so the change takes effect immediately, without a restart and
// without otherwise perturbing the execution.
package vm

import (
	"fmt"

	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Default address-space layout.
const (
	DefaultStackTop  = 0x3000_0000
	DefaultStackSize = 0x0004_0000
	DefaultHeapBase  = 0x2000_0000
	DefaultHeapSize  = 0x0100_0000
	DefaultMaxSteps  = 20_000_000
)

// Flags holds the condition codes set by CMP.
type Flags struct {
	Z bool // zero
	S bool // sign of the subtraction result
	C bool // unsigned borrow
	O bool // signed overflow
}

// CPU is the architectural register state.
type CPU struct {
	Regs  [isa.NumRegs]uint32
	PC    uint32
	Flags Flags
}

// Outcome classifies how a run ended, following the paper's taxonomy (§2):
// a failure is an error detected by a ClearView monitor; a crash is any
// other termination of the application (fault, invalid instruction,
// resource exhaustion, hang).
type Outcome uint8

const (
	// OutcomeExit means the application terminated normally via SYS exit.
	OutcomeExit Outcome = iota
	// OutcomeFailure means a monitor detected a failure and terminated
	// the application.
	OutcomeFailure
	// OutcomeCrash means the application terminated abnormally without a
	// monitor detection.
	OutcomeCrash
)

func (o Outcome) String() string {
	switch o {
	case OutcomeExit:
		return "exit"
	case OutcomeFailure:
		return "failure"
	case OutcomeCrash:
		return "crash"
	}
	return fmt.Sprintf("outcome%d", uint8(o))
}

// Failure describes a monitor-detected failure: the location (program
// counter) where the monitor detected it, which monitor fired, and the
// call-stack snapshot if a shadow stack was maintained.
type Failure struct {
	PC      uint32
	Monitor string
	Kind    string
	Detail  string
	Target  uint32   // offending transfer target or write address
	Stack   []uint32 // innermost-first procedure-entry snapshot, if available
}

func (f *Failure) Error() string {
	return fmt.Sprintf("%s at %#x: %s (target %#x)", f.Monitor, f.PC, f.Kind, f.Target)
}

// Crash describes an abnormal termination that no monitor caught.
type Crash struct {
	PC     uint32
	Reason string
}

func (c *Crash) Error() string { return fmt.Sprintf("crash at %#x: %s", c.PC, c.Reason) }

// RunResult summarizes one execution.
type RunResult struct {
	Outcome  Outcome
	ExitCode uint32
	Failure  *Failure // set iff Outcome == OutcomeFailure
	Crash    *Crash   // set iff Outcome == OutcomeCrash
	Output   []byte   // the "display": everything the app wrote via SYS write
	Steps    uint64   // instructions executed
	Blocks   int      // basic blocks decoded into the cache
	HookRuns uint64   // instrumentation/patch hook invocations
}

// Plugin instruments basic blocks as they enter the code cache. A plugin
// instance may be shared across VM instances to accumulate state between
// runs (e.g. the CFG database or the learning engine).
type Plugin interface {
	Name() string
	// Instrument may attach hooks to the block's instructions. It is
	// called exactly once per block per cache insertion.
	Instrument(v *VM, b *Block)
}

// StackProvider supplies a call-stack snapshot at failure time. The shadow
// stack monitor registers itself as the provider; without one, failures
// carry no stack (the native stack may be corrupted — §2.3).
type StackProvider interface {
	StackSnapshot() []uint32
}

// Config assembles a machine.
type Config struct {
	Image     *image.Image
	Plugins   []Plugin
	Patches   []*Patch // initial patch set; more may be applied mid-run
	Input     []byte   // the input stream (sequence of pages)
	MaxSteps  uint64
	StackTop  uint32
	StackSize uint32
	HeapBase  uint32
	HeapSize  uint32

	// SnapshotInterval asks the machine to emit a state snapshot to
	// SnapshotSink every ~interval executed instructions (plus one at step
	// 0, before the first instruction). Snapshots are copy-on-write, so
	// the recording overhead is proportional to pages dirtied between
	// snapshots. Both fields must be set for capture to happen.
	SnapshotInterval uint64
	SnapshotSink     func(*Snapshot)

	// Coverage, when non-nil, records per-basic-block edge coverage: every
	// time the dispatch loop enters a block from the code cache, the
	// (previous block, next block) edge is counted. nil costs nothing.
	Coverage *Coverage
}

// VM is one executing instance of the protected application.
type VM struct {
	CPU   CPU
	Mem   *mem.Memory
	Heap  *mem.Heap
	Image *image.Image

	plugins []Plugin
	patches *patchSet
	cache   map[uint32]*Block
	// cacheGen is the code-cache generation; block successor links are
	// valid only for the generation they were created under, so a patch
	// flush that ejects a block, and every Restore, invalidates all links
	// by incrementing it.
	cacheGen uint64
	stack    StackProvider

	// hookCtx is the one context every hook is handed. A hook sees it for
	// exactly one instruction and never retains it, so Run resets it per
	// hooked instruction instead of allocating, and monitored runs stay
	// allocation-free.
	hookCtx Ctx

	// Exception handling emulation (SysSetEH): on a memory fault the
	// machine dispatches to the handler address stored at ehSlot, subject
	// to the registered transfer validator (Memory Firewall).
	ehSlot       uint32
	ehDispatched bool
	validator    func(v *VM, pc, target uint32) *Failure

	input    []byte
	inPos    int
	output   []byte
	maxSteps uint64

	steps        uint64
	hookRuns     uint64
	blocks       int
	guestDecodes int

	snapInterval uint64
	snapSink     func(*Snapshot)
	nextSnap     uint64

	cov       *Coverage
	lastBlock uint32

	// Hang watch (monitor.HangGuard): when hangBudget is nonzero and the
	// step count reaches it, the next code-cache dispatch — the same point
	// that records edge coverage — terminates the run with the failure
	// hangFail produces instead of executing the block. Checking at
	// dispatch (not per instruction) keeps the watch off the hot loop and
	// pins the failure location to a basic-block head, so every run of the
	// same input fails at the same PC.
	hangBudget uint64
	hangFail   func(pc uint32, steps uint64) *Failure
}

// New builds a machine, loads the image, maps stack and heap, and points
// the CPU at the entry point with ESP at the top of the stack.
func New(cfg Config) (*VM, error) {
	if cfg.Image == nil {
		return nil, fmt.Errorf("vm: nil image")
	}
	if err := cfg.Image.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	if cfg.StackTop == 0 {
		cfg.StackTop = DefaultStackTop
	}
	if cfg.StackSize == 0 {
		cfg.StackSize = DefaultStackSize
	}
	if cfg.HeapBase == 0 {
		cfg.HeapBase = DefaultHeapBase
	}
	if cfg.HeapSize == 0 {
		cfg.HeapSize = DefaultHeapSize
	}
	m := mem.New()
	m.Map(cfg.Image.Base, uint32(len(cfg.Image.Code)))
	if err := m.WriteBytes(cfg.Image.Base, cfg.Image.Code); err != nil {
		return nil, err
	}
	m.Map(cfg.StackTop-cfg.StackSize, cfg.StackSize)
	v := &VM{
		Mem:      m,
		Heap:     mem.NewHeap(m, cfg.HeapBase, cfg.HeapSize),
		Image:    cfg.Image,
		plugins:  cfg.Plugins,
		patches:  newPatchSet(),
		cache:    make(map[uint32]*Block),
		input:    cfg.Input,
		maxSteps: cfg.MaxSteps,
	}
	if cfg.SnapshotInterval > 0 && cfg.SnapshotSink != nil {
		v.snapInterval = cfg.SnapshotInterval
		v.snapSink = cfg.SnapshotSink
	}
	v.cov = cfg.Coverage
	v.hookCtx.VM = v
	v.CPU.PC = cfg.Image.Entry
	v.CPU.Regs[isa.ESP] = cfg.StackTop
	for _, p := range cfg.Patches {
		if err := v.ApplyPatch(p); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// SetStackProvider registers the shadow-stack snapshot source.
func (v *VM) SetStackProvider(p StackProvider) { v.stack = p }

// SetHangWatch arms the step-budget watchdog: once budget instructions
// have executed, the next basic-block dispatch ends the run with the
// failure fail produces (given the block's start PC and the step count).
// A zero budget disarms the watch. monitor.HangGuard registers itself
// here; the budget must stay below Config.MaxSteps or the ordinary
// step-limit crash fires first.
func (v *VM) SetHangWatch(budget uint64, fail func(pc uint32, steps uint64) *Failure) {
	v.hangBudget = budget
	v.hangFail = fail
}

// SetTransferValidator registers a validation check applied to
// runtime-dispatched control transfers that do not correspond to a decoded
// instruction — currently only exception-handler dispatch. Memory Firewall
// registers itself here so that a corrupted handler record cannot divert
// execution to injected code. The check is handed the machine, so one
// plain function serves every machine.
func (v *VM) SetTransferValidator(f func(v *VM, pc, target uint32) *Failure) {
	v.validator = f
}

// InCode reports whether addr lies within the application code region —
// the legality predicate Memory Firewall applies to transfer targets.
func (v *VM) InCode(addr uint32) bool { return v.Image.Contains(addr) }

// Coverage returns the attached edge-coverage accumulator, or nil.
func (v *VM) Coverage() *Coverage { return v.cov }

func (v *VM) snapshotStack() []uint32 {
	if v.stack == nil {
		return nil
	}
	return v.stack.StackSnapshot()
}

func (v *VM) result(o Outcome, exit uint32, f *Failure, c *Crash) RunResult {
	return RunResult{
		Outcome: o, ExitCode: exit, Failure: f, Crash: c,
		Output: v.output, Steps: v.steps, Blocks: v.blocks, HookRuns: v.hookRuns,
	}
}
