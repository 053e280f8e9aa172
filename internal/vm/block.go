package vm

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/isa"
)

// Hook priorities. At one instruction, hooks run in ascending priority
// order. Repairs run first so that enforcement happens before monitors
// validate (an enforced one-of invariant redirects an indirect call before
// Memory Firewall inspects the target, as in the paper where the patch
// replaces the call itself). Invariant checks run next, observing the
// possibly-enforced state at the patch point. Monitors run before tracing
// so a failing instruction does not contaminate the learning data.
const (
	PrioRepair  = 0
	PrioCheck   = 10
	PrioMonitor = 20
	PrioTrace   = 30
)

// Hook is instrumentation attached in front of one instruction. Returning
// a *Failure terminates the run as a monitor-detected failure; any other
// non-nil error terminates it as a crash.
type Hook func(ctx *Ctx) error

// hookEntry is one attached hook and its priority.
type hookEntry struct {
	prio int
	h    Hook
}

// blockLink is one cached successor: the resolved *Block for a successor
// start address, valid only while gen matches the VM's cache generation.
// Generation matching makes patch-time invalidation O(1): ejecting any
// block bumps the generation and every link in the machine goes stale at
// once, including links held by the block currently executing.
type blockLink struct {
	pc  uint32
	gen uint64
	b   *Block
}

// Block is one basic block in the code cache. Insts is read-only: a block
// decoded from unmodified code shares it with every machine loaded from
// the same image (see decodeBlock).
type Block struct {
	Start uint32
	Insts []isa.Inst

	hooks [][]hookEntry

	// links is a 2-entry successor cache so straight-line and
	// direct-branch dispatch (fallthrough + taken target, or call +
	// return site) skips the code-cache map. Dynamic targets (RET,
	// indirect calls) share the same two slots under round-robin
	// replacement.
	links  [2]blockLink
	linkRR uint8
}

// AddHook attaches a hook in front of instruction index i. The entry list
// stays ordered by priority, and hooks of equal priority in insertion
// order: the new entry goes after the last entry with priority <= prio —
// a single backward scan and shift instead of re-sorting the whole list on
// every insert.
func (b *Block) AddHook(i, prio int, h Hook) {
	if b.hooks == nil {
		b.hooks = make([][]hookEntry, len(b.Insts))
	}
	list := append(b.hooks[i], hookEntry{})
	pos := len(list) - 1
	for pos > 0 && list[pos-1].prio > prio {
		list[pos] = list[pos-1]
		pos--
	}
	list[pos] = hookEntry{prio: prio, h: h}
	b.hooks[i] = list
}

// Addr returns the address of instruction i.
func (b *Block) Addr(i int) uint32 { return b.Start + uint32(i)*isa.InstSize }

// contains reports whether the block covers the instruction address.
func (b *Block) contains(addr uint32) bool {
	off := addr - b.Start
	return addr >= b.Start && off%isa.InstSize == 0 && off/isa.InstSize < uint32(len(b.Insts))
}

// Patch is a unit of runtime modification: a hook bound to one instruction
// address. ClearView expresses invariant checks and repairs as patches.
type Patch struct {
	ID   string
	Addr uint32
	Prio int
	Hook Hook
}

type patchSet struct {
	byAddr map[uint32][]*Patch
	byID   map[string]*Patch
}

func newPatchSet() *patchSet {
	return &patchSet{byAddr: make(map[uint32][]*Patch), byID: make(map[string]*Patch)}
}

// ApplyPatch installs a patch, ejecting any cached blocks that contain the
// patched address so the next execution of that code picks it up. This is
// the running-application patching capability of §2.1.
func (v *VM) ApplyPatch(p *Patch) error {
	if p.ID == "" {
		return fmt.Errorf("vm: patch with empty ID at %#x", p.Addr)
	}
	if _, dup := v.patches.byID[p.ID]; dup {
		return fmt.Errorf("vm: duplicate patch ID %q", p.ID)
	}
	v.patches.byID[p.ID] = p
	v.patches.byAddr[p.Addr] = append(v.patches.byAddr[p.Addr], p)
	v.flushBlocksContaining(p.Addr)
	return nil
}

// RemovePatch uninstalls a patch by ID, ejecting affected cached blocks.
// Removing an unknown ID is a no-op so that community-wide removal
// directives are idempotent.
func (v *VM) RemovePatch(id string) {
	p, ok := v.patches.byID[id]
	if !ok {
		return
	}
	delete(v.patches.byID, id)
	list := v.patches.byAddr[p.Addr]
	for i, q := range list {
		if q.ID == id {
			v.patches.byAddr[p.Addr] = append(list[:i], list[i+1:]...)
			break
		}
	}
	v.flushBlocksContaining(p.Addr)
}

// PatchIDs returns the IDs of all installed patches, sorted.
func (v *VM) PatchIDs() []string {
	ids := make([]string, 0, len(v.patches.byID))
	for id := range v.patches.byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// flushBlocksContaining ejects every cached block that covers addr. It
// walks the cache: a machine applies its configured patches while the
// cache is still empty, and only tests patch a running one, so no index
// is kept. Blocks may overlap (a jump into the middle of a block decodes a
// second block sharing the tail), and the walk ejects each of them.
func (v *VM) flushBlocksContaining(addr uint32) {
	ejected := false
	for start, b := range v.cache {
		if b.contains(addr) {
			delete(v.cache, start)
			ejected = true
		}
	}
	if ejected {
		// Invalidate every successor link in one step: each carries the
		// generation it was created under, so bumping it orphans links
		// into (and out of) the ejected blocks without touching the blocks
		// that hold them.
		v.cacheGen++
	}
}

// dispatch returns the block starting at pc. This is the code cache's
// dispatch point: edge coverage is recorded on every entry — linked or
// not, hit or miss — so coverage fingerprints are independent of the
// linking optimization. When prev has a valid successor link for pc the
// code-cache map is skipped entirely; otherwise the resolved block is
// linked into prev for next time.
func (v *VM) dispatch(prev *Block, pc uint32) (*Block, error) {
	if v.cov != nil {
		v.cov.hit(v.lastBlock, pc)
		v.lastBlock = pc
	}
	if prev != nil {
		if l := &prev.links[0]; l.b != nil && l.pc == pc && l.gen == v.cacheGen {
			return l.b, nil
		}
		if l := &prev.links[1]; l.b != nil && l.pc == pc && l.gen == v.cacheGen {
			return l.b, nil
		}
	}
	b, err := v.fetchBlock(pc)
	if err != nil {
		return nil, err
	}
	if prev != nil {
		// After a cache-generation bump, a slot may already hold this pc
		// with a stale gen. Refresh that slot in place rather than
		// claiming the round-robin slot: otherwise both slots end up
		// duplicating one successor and the live second target is evicted
		// (link thrash on every two-successor block after a patch).
		switch {
		case prev.links[0].b != nil && prev.links[0].pc == pc:
			prev.links[0] = blockLink{pc: pc, gen: v.cacheGen, b: b}
		case prev.links[1].b != nil && prev.links[1].pc == pc:
			prev.links[1] = blockLink{pc: pc, gen: v.cacheGen, b: b}
		default:
			prev.links[prev.linkRR&1] = blockLink{pc: pc, gen: v.cacheGen, b: b}
			prev.linkRR++
		}
	}
	return b, nil
}

// fetchBlock returns the cached block starting at pc, decoding and
// instrumenting it on a miss.
func (v *VM) fetchBlock(pc uint32) (*Block, error) {
	if b, ok := v.cache[pc]; ok {
		return b, nil
	}
	b, err := v.decodeBlock(pc)
	if err != nil {
		return nil, err
	}
	for _, pl := range v.plugins {
		pl.Instrument(v, b)
	}
	// Patch hooks are attached after plugin instrumentation so their
	// relative order is governed purely by priority.
	for i := range b.Insts {
		for _, p := range v.patches.byAddr[b.Addr(i)] {
			b.AddHook(i, p.Prio, p.Hook)
		}
	}
	v.cache[pc] = b
	v.blocks++
	return b, nil
}

// decodeBlock decodes the block at pc, through the first block terminator.
// Run relies on that: only a block's last instruction transfers control.
//
// A block that starts on an instruction slot of the image shares the
// image's decode table, once every instruction word in guest memory is
// checked against the image's code bytes the table decoded. Code the
// guest overwrote or a Restore brought back different, an unaligned start,
// and a block that runs off the table or into an undecodable slot are
// decoded from guest memory instead, with the same crash reasons.
func (v *VM) decodeBlock(pc uint32) (*Block, error) {
	if insts := v.sharedInsts(pc); insts != nil {
		return &Block{Start: pc, Insts: insts}, nil
	}
	v.guestDecodes++
	b := &Block{Start: pc}
	for addr := pc; ; addr += isa.InstSize {
		if !v.InCode(addr) {
			return nil, fmt.Errorf("instruction fetch outside code region at %#x", addr)
		}
		w, ok := v.codeWord(addr)
		if !ok {
			return nil, fmt.Errorf("instruction fetch fault at %#x", addr)
		}
		var raw [isa.InstSize]byte
		binary.LittleEndian.PutUint64(raw[:], w)
		in, err := isa.Decode(raw[:])
		if err != nil {
			return nil, fmt.Errorf("undecodable instruction at %#x: %v", addr, err)
		}
		b.Insts = append(b.Insts, in)
		if in.Op.EndsBlock() {
			return b, nil
		}
	}
}

// sharedInsts returns the block at pc as a read-only subslice of the
// image's decode table, or nil when it must be decoded from guest memory.
func (v *VM) sharedInsts(pc uint32) []isa.Inst {
	insts, code := v.Image.Decoded(), v.Image.Code
	off := pc - v.Image.Base
	if pc < v.Image.Base || off%isa.InstSize != 0 {
		return nil
	}
	first := int(off / isa.InstSize)
	for i, addr := first, pc; i < len(insts); i, addr = i+1, addr+isa.InstSize {
		w, ok := v.codeWord(addr)
		if !ok || w != binary.LittleEndian.Uint64(code[i*isa.InstSize:]) || !insts[i].Op.Valid() {
			return nil
		}
		if insts[i].Op.EndsBlock() {
			return insts[first : i+1 : i+1]
		}
	}
	return nil
}

// codeWord reads the 8 bytes at addr from guest memory as one
// little-endian word, without allocating unless a page is unmapped.
func (v *VM) codeWord(addr uint32) (uint64, bool) {
	lo, err := v.Mem.Read32(addr)
	if err != nil {
		return 0, false
	}
	hi, err := v.Mem.Read32(addr + 4)
	return uint64(lo) | uint64(hi)<<32, err == nil
}

// GuestDecodes returns how many blocks this machine decoded from guest
// memory instead of taking them from the image's decode table.
func (v *VM) GuestDecodes() int { return v.guestDecodes }
