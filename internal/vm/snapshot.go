package vm

import (
	"repro/internal/mem"
)

// Snapshot is a resumable capture of a machine's architectural and
// environmental state: registers, flags, the address space (captured
// copy-on-write, so taking one costs O(pages dirtied afterwards), not
// O(address space)), the allocator bookkeeping, the exception-handler
// registration, the input cursor, the display, and the step accounting.
//
// A snapshot is taken *before* the instruction at CPU.PC executes, so a
// restored machine re-executes that instruction first and the continuation
// is bit-identical to the original run.
//
// What a snapshot deliberately does NOT capture is plugin state: plugins
// (monitors, tracers) live outside the machine. Restoring a snapshot taken
// at step 0 onto a machine with freshly constructed plugins is always
// consistent; restoring a mid-run snapshot is consistent for stateless
// plugins (Memory Firewall) and allocator-backed ones (Heap Guard reads
// the restored heap), but a mid-run Shadow Stack would start empty — the
// replay farm therefore replays full runs and uses mid-run snapshots only
// for monitor-free fast-forwarding.
//
// All fields are exported and gob-serializable; snapshots travel inside
// replay.Recordings between community nodes and the manager.
type Snapshot struct {
	CPU          CPU
	Mem          *mem.Memory
	Heap         mem.HeapState
	EHSlot       uint32
	EHDispatched bool
	InPos        int
	Output       []byte
	Steps        uint64
	HookRuns     uint64
	Blocks       int
}

// Snapshot captures the machine's current state. The machine remains
// runnable; subsequent writes privatize pages lazily.
func (v *VM) Snapshot() *Snapshot {
	return &Snapshot{
		CPU:          v.CPU,
		Mem:          v.Mem.Clone(),
		Heap:         v.Heap.State(),
		EHSlot:       v.ehSlot,
		EHDispatched: v.ehDispatched,
		InPos:        v.inPos,
		Output:       append([]byte(nil), v.output...),
		Steps:        v.steps,
		HookRuns:     v.hookRuns,
		Blocks:       v.blocks,
	}
}

// Restore rewinds the machine to a snapshot. The snapshot itself is not
// consumed: its memory is cloned copy-on-write, so one snapshot can seed
// any number of machines (including concurrently — Clone is the only
// operation performed on the shared snapshot).
//
// The machine must have been built over the same image and input stream as
// the machine the snapshot was taken from; patches and plugins may differ
// (that is the point: the replay farm restores one recorded state under
// many candidate patch sets). The code cache is flushed so blocks are
// re-instrumented against the restored machine's patch set.
func (v *VM) Restore(s *Snapshot) {
	v.CPU = s.CPU
	v.Mem = s.Mem.Clone()
	v.Heap = mem.NewHeapFromState(v.Mem, s.Heap)
	v.ehSlot = s.EHSlot
	v.ehDispatched = s.EHDispatched
	v.inPos = s.InPos
	v.output = append([]byte(nil), s.Output...)
	v.steps = s.Steps
	v.hookRuns = s.HookRuns
	v.blocks = s.Blocks
	v.cache = make(map[uint32]*Block)
	v.addrIndex = nil // rebuilt lazily if another patch lands
	v.cacheGen++      // orphan successor links held by pre-restore blocks
	v.lastBlock = 0   // coverage resumes with a fresh entry edge
}

// maybeSnapshot emits a periodic snapshot to the configured sink. Called
// from the interpreter loop with CPU.PC already set to the instruction
// about to execute and before the step counter advances, so restored
// machines resume exactly at this instruction.
func (v *VM) maybeSnapshot() {
	if v.snapSink == nil || v.steps < v.nextSnap {
		return
	}
	v.nextSnap = v.steps + v.snapInterval
	v.snapSink(v.Snapshot())
}
