// Package vm implements the managed program execution environment — the
// analog of the Determina/DynamoRIO substrate ClearView builds on (§2.1).
//
// All application code executes out of a basic-block code cache. Plugins
// are given each block once, as it enters the cache, and may attach hooks
// to individual instructions (instrumentation); a plugin may also be
// installed on each new machine (Installer) and told of every block entry
// (BlockEnterer). The cache is a code table of decoded, instrumented
// blocks indexed by instruction slot. Machines of one image whose plugins
// all promise instance-independent instrumentation (BlockSharer) share one
// table, so a block is decoded and instrumented once per image and plugin
// set; a machine keeps only which slots it has entered, its patches, and
// the blocks of its own those patches and any rewritten code need. Patches
// attach hooks to instruction addresses through the patch manager and can
// be applied to and removed from a *running* machine; affected blocks are
// flushed so the change takes effect at their next entry, without a restart
// and without otherwise perturbing the execution.
package vm

import (
	"fmt"
	"math"

	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/mem"
)

// The address-space layout every machine is built with, and the default
// step limit.
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
	Blocks   int      // basic blocks entered for the first time since the machine was built or flushed there
	HookRuns uint64   // instrumentation/patch hook invocations
}

// Plugin instruments basic blocks as they enter the code cache. A plugin
// instance may be shared across VM instances to accumulate state between
// runs (e.g. the CFG database or the learning engine).
//
// A plugin may also take either of the machine's two events by
// implementing its one method: Installer's Install, once per machine, and
// BlockEnterer's EnterBlock, once per basic-block entry. And it may let
// machines share its instrumentation by implementing BlockSharer. New
// type-asserts each plugin once; there is nothing to register.
type Plugin interface {
	Name() string
	// Instrument may attach hooks to the block's instructions. It is
	// called once per block of a code table: for a private table, at the
	// block's first entry on the machine; for a shared one, by whichever
	// machine of the image enters the block first. A block decoded from
	// guest memory is instrumented for the machine alone.
	Instrument(b *Block)
}

// BlockSharer is implemented by a plugin whose instrumentation every
// machine of an image may share. By implementing ShareBlocks a plugin
// promises three things. Its Instrument depends only on the block and the
// plugin's type, never on the instance. Its hooks capture nothing: they
// reach this machine's instance, and any per-machine state it keeps,
// through Ctx.Plugin. And instrumenting has no side effects. A machine
// whose plugins all implement it reads the code table kept on its image
// for their types, in order; a machine with any other plugin builds a
// private table.
type BlockSharer interface {
	ShareBlocks()
}

// Installer is implemented by a plugin that wires itself into each
// machine beyond per-block hooks (a stack provider, the hang watch, the
// exception-dispatch validator, per-run state seeded from the initial
// registers). New calls Install once, on the machine it has just built,
// before the machine runs. Install must be idempotent: a caller that
// installs the plugin again changes nothing.
type Installer interface {
	Install(v *VM)
}

// BlockEnterer is implemented by a plugin that must see every execution
// of a basic block begin. Run calls EnterBlock after each dispatch, before
// any hook of the block's first instruction runs, so a hook that skips or
// diverts that instruction cannot suppress it. It is not a hook run.
type BlockEnterer interface {
	EnterBlock()
}

// StackProvider supplies a call-stack snapshot at failure time. The shadow
// stack monitor registers itself as the provider; without one, failures
// carry no stack (the native stack may be corrupted — §2.3).
type StackProvider interface {
	StackSnapshot() []uint32
}

// Config assembles a machine.
type Config struct {
	Image    *image.Image
	Plugins  []Plugin
	Patches  []*Patch // initial patch set; more may be applied mid-run
	Input    []byte   // the input stream (sequence of pages)
	MaxSteps uint64

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

	plugins  []Plugin
	enterers []BlockEnterer // the plugins that take EnterBlock
	patches  patchSet
	stack    StackProvider

	// The code cache: the code table the machine reads (shared or its
	// own), a bitset of the table slots it has entered since it was built
	// or last flushed there, and the blocks it keeps for itself — table
	// blocks a patch covers, with the patch hooks attached, and blocks
	// decoded from guest memory — by start address.
	code    *codeTable
	entered []uint64
	own     map[uint32]*Block
	// hot is a direct-mapped cache of own blocks by start address, so a
	// loop through patched blocks (an invariant-checking run) does not
	// look each one up in own.
	hot [16]*Block

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
	built        int

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

// New builds a machine, loads the image, maps stack and heap at the
// default layout, points the CPU at the entry point with ESP at the top of
// the stack, applies the initial patches and installs every plugin that
// implements Installer.
func New(cfg Config) (*VM, error) {
	if cfg.Image == nil {
		return nil, fmt.Errorf("vm: nil image")
	}
	if err := cfg.Image.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Plugins) > math.MaxUint16 {
		return nil, fmt.Errorf("vm: %d plugins, at most %d", len(cfg.Plugins), math.MaxUint16)
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	m := mem.New()
	m.Map(cfg.Image.Base, uint32(len(cfg.Image.Code)))
	if err := m.WriteBytes(cfg.Image.Base, cfg.Image.Code); err != nil {
		return nil, err
	}
	m.Map(DefaultStackTop-DefaultStackSize, DefaultStackSize)
	code := codeTableFor(cfg.Image, cfg.Plugins)
	v := &VM{
		Mem:      m,
		Heap:     mem.NewHeap(m, DefaultHeapBase, DefaultHeapSize),
		Image:    cfg.Image,
		plugins:  cfg.Plugins,
		code:     code,
		entered:  make([]uint64, (len(code.blocks)+63)/64),
		input:    cfg.Input,
		maxSteps: cfg.MaxSteps,
	}
	v.cov = cfg.Coverage
	v.hookCtx.VM = v
	v.CPU.PC = cfg.Image.Entry
	v.CPU.Regs[isa.ESP] = DefaultStackTop
	for _, p := range cfg.Patches {
		if err := v.ApplyPatch(p); err != nil {
			return nil, err
		}
	}
	for _, p := range cfg.Plugins {
		if e, ok := p.(BlockEnterer); ok {
			v.enterers = append(v.enterers, e)
		}
		if in, ok := p.(Installer); ok {
			in.Install(v)
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
