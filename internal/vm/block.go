package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/mem"
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

// hookEntry is one attached hook: the instruction it runs in front of, its
// priority, and its owner, which is 1 + the index of the plugin that
// attached it among the machine's plugins, or 0 for a patch (Ctx.Plugin
// reads it). It is 16 bytes, so a block's hooks stay compact in a shared
// code table.
type hookEntry struct {
	h     Hook
	inst  uint32
	prio  int16
	owner uint16
}

// Block is one basic block. Insts is read-only: a block decoded from
// unmodified code is a subslice of the image's decode table. A block in a
// code table is read-only as a whole and may be shared by every machine of
// its image (see BlockSharer).
type Block struct {
	Start uint32
	owner uint16 // the owner AddHook tags hooks with while a plugin instruments the block
	Insts []isa.Inst

	// hooks is every hook of the block in the order Run runs them: by
	// instruction, then priority, then attachment.
	hooks []hookEntry
}

// AddHook attaches a hook in front of instruction index i. Hooks of one
// instruction run in ascending priority order, and hooks of equal priority
// in insertion order: the new entry goes after the last entry for an
// earlier instruction or for instruction i with priority <= prio — a
// single backward scan and shift instead of re-sorting the block's hooks
// on every insert. Priorities beyond the int16 range are clamped to it.
func (b *Block) AddHook(i, prio int, h Hook) {
	if i < 0 || i >= len(b.Insts) {
		panic(fmt.Sprintf("vm: hook on instruction %d of a %d-instruction block", i, len(b.Insts)))
	}
	e := hookEntry{h: h, inst: uint32(i), prio: int16(max(math.MinInt16, min(prio, math.MaxInt16))), owner: b.owner}
	hooks := append(b.hooks, hookEntry{})
	pos := len(hooks) - 1
	for pos > 0 && (hooks[pos-1].inst > e.inst || hooks[pos-1].inst == e.inst && hooks[pos-1].prio > e.prio) {
		hooks[pos] = hooks[pos-1]
		pos--
	}
	hooks[pos] = e
	b.hooks = hooks
}

// Addr returns the address of instruction i.
func (b *Block) Addr(i int) uint32 { return b.Start + uint32(i)*isa.InstSize }

// contains reports whether the block covers the instruction address.
func (b *Block) contains(addr uint32) bool {
	off := addr - b.Start
	return addr >= b.Start && off%isa.InstSize == 0 && off/isa.InstSize < uint32(len(b.Insts))
}

// codeTable is the decoded, instrumented blocks of one image under one
// list of plugin types, indexed by the instruction slot each starts on.
// Each entry is published once, by compare-and-swap, and never written
// again, so machines on several goroutines build and read one table
// without locks; a machine that loses the race to publish an entry drops
// its own copy.
//
// Every machine whose plugins all implement BlockSharer shares the table
// kept on its image for their types, in order. A machine with any other
// plugin builds a private table of its own, by the same code. A block that
// no plugin hooked is taken from the image's table without plugins, so
// every table of an image shares it.
type codeTable struct {
	types  []reflect.Type
	blocks []atomic.Pointer[Block]
	bare   *codeTable // the image's table without plugins; nil for that table itself
}

func newCodeTable(im *image.Image, types []reflect.Type, bare *codeTable) *codeTable {
	return &codeTable{types: types, blocks: make([]atomic.Pointer[Block], len(im.Decoded())), bare: bare}
}

// codeTableFor returns the code table a machine of im with these plugins
// reads. Finding a shared table allocates nothing.
func codeTableFor(im *image.Image, plugins []Plugin) *codeTable {
	bare := sharedTable(im, nil, nil)
	if len(plugins) == 0 {
		return bare
	}
	for _, p := range plugins {
		if _, ok := p.(BlockSharer); !ok {
			return newCodeTable(im, nil, bare)
		}
	}
	return sharedTable(im, plugins, bare)
}

// sharedTable returns the table kept on im for the types of plugins,
// keeping a new one there on first use.
func sharedTable(im *image.Image, plugins []Plugin, bare *codeTable) *codeTable {
	return im.Table(func(t any) bool {
		types := t.(*codeTable).types
		if len(types) != len(plugins) {
			return false
		}
		for i, p := range plugins {
			if reflect.TypeOf(p) != types[i] {
				return false
			}
		}
		return true
	}, func() any {
		types := make([]reflect.Type, len(plugins))
		for i, p := range plugins {
			types[i] = reflect.TypeOf(p)
		}
		return newCodeTable(im, types, bare)
	}).(*codeTable)
}

// block returns the table's block at slot, building it with v's plugins
// on first use, or nil when the image's code from slot does not decode
// through a block terminator.
func (t *codeTable) block(v *VM, slot uint32) *Block {
	if b := t.blocks[slot].Load(); b != nil {
		return b
	}
	insts := imageBlock(v.Image.Decoded(), slot)
	if insts == nil {
		return nil
	}
	b := &Block{Start: v.Image.Base + slot*isa.InstSize, Insts: insts}
	if t.bare != nil {
		v.instrument(b)
		if len(b.hooks) == 0 {
			b = t.bare.publish(slot, b)
		}
	}
	v.built++
	return t.publish(slot, b)
}

// publish stores b at slot unless another machine stored a block there
// first, and returns the stored block.
func (t *codeTable) publish(slot uint32, b *Block) *Block {
	if t.blocks[slot].CompareAndSwap(nil, b) {
		return b
	}
	return t.blocks[slot].Load()
}

// imageBlock returns the image's basic block starting at slot as a
// read-only subslice of its decode table, or nil when an undecodable slot
// or the end of the table comes before a block terminator.
func imageBlock(insts []isa.Inst, slot uint32) []isa.Inst {
	for i := int(slot); i < len(insts); i++ {
		switch {
		case !insts[i].Op.Valid():
			return nil
		case insts[i].Op.EndsBlock():
			return insts[slot : i+1 : i+1]
		}
	}
	return nil
}

// instrument hands b to each of the machine's plugins in turn, tagging
// the hooks each attaches with its owner.
func (v *VM) instrument(b *Block) {
	for k, pl := range v.plugins {
		b.owner = uint16(k + 1)
		pl.Instrument(b)
	}
	b.owner = 0
}

// Patch is a unit of runtime modification: a hook bound to one instruction
// address. ClearView expresses invariant checks and repairs as patches.
type Patch struct {
	ID   string
	Addr uint32
	Prio int
	Hook Hook
}

// patchSet is a machine's patches, by ID and in address order (patches at
// one address in the order they were applied).
type patchSet struct {
	byID   map[string]*Patch
	byAddr []*Patch
}

// search returns the index of the first patch at or above addr.
func (ps *patchSet) search(addr uint32) int {
	return sort.Search(len(ps.byAddr), func(i int) bool { return ps.byAddr[i].Addr >= addr })
}

// within returns the patches at the addresses b spans; some may lie
// between its instructions.
func (ps *patchSet) within(b *Block) []*Patch {
	return ps.byAddr[ps.search(b.Start):ps.search(b.Addr(len(b.Insts)))]
}

// covers reports whether a patch is at one of b's instructions.
func (ps *patchSet) covers(b *Block) bool {
	for _, p := range ps.within(b) {
		if b.contains(p.Addr) {
			return true
		}
	}
	return false
}

// attach attaches the hook of every patch at one of b's instructions.
// Patch hooks go on after plugin instrumentation, so their order relative
// to the plugins' hooks is governed purely by priority.
func (ps *patchSet) attach(b *Block) {
	for _, p := range ps.within(b) {
		if b.contains(p.Addr) {
			b.AddHook(int((p.Addr-b.Start)/isa.InstSize), p.Prio, p.Hook)
		}
	}
}

// ApplyPatch installs a patch, flushing every block that contains the
// patched address so the next execution of that code picks it up. This is
// the running-application patching capability of §2.1.
func (v *VM) ApplyPatch(p *Patch) error {
	if p.ID == "" {
		return fmt.Errorf("vm: patch with empty ID at %#x", p.Addr)
	}
	if _, dup := v.patches.byID[p.ID]; dup {
		return fmt.Errorf("vm: duplicate patch ID %q", p.ID)
	}
	if v.patches.byID == nil {
		v.patches.byID = make(map[string]*Patch)
	}
	v.patches.byID[p.ID] = p
	i := sort.Search(len(v.patches.byAddr), func(i int) bool { return v.patches.byAddr[i].Addr > p.Addr })
	v.patches.byAddr = slices.Insert(v.patches.byAddr, i, p)
	v.flushBlocksContaining(p.Addr)
	return nil
}

// RemovePatch uninstalls a patch by ID, flushing affected blocks.
// Removing an unknown ID is a no-op so that community-wide removal
// directives are idempotent.
func (v *VM) RemovePatch(id string) {
	p, ok := v.patches.byID[id]
	if !ok {
		return
	}
	delete(v.patches.byID, id)
	i := v.patches.search(p.Addr)
	i += slices.Index(v.patches.byAddr[i:], p)
	v.patches.byAddr = slices.Delete(v.patches.byAddr, i, i+1)
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

// flushBlocksContaining makes the next entry of every block that covers
// addr take fetchBlock again, so a patch change takes effect there. It
// clears the entered bit of every table slot whose block covers addr —
// addr's own slot and each slot before it back to the previous block
// terminator in the decode table — and drops the machine's own blocks that
// cover it. Blocks may overlap (a jump into the middle of a block starts a
// second block sharing the tail), and both steps reach each of them.
func (v *VM) flushBlocksContaining(addr uint32) {
	if s, ok := v.slot(addr); ok {
		insts := v.Image.Decoded()
		for {
			v.entered[s/64] &^= 1 << (s % 64)
			if s == 0 || !insts[s-1].Op.Valid() || insts[s-1].Op.EndsBlock() {
				break
			}
			s--
		}
	}
	for pc, b := range v.own {
		if b.contains(addr) {
			delete(v.own, pc)
		}
	}
	clear(v.hot[:])
}

// slot returns the image instruction slot at pc, or false when pc is
// unaligned or outside the image's decode table.
func (v *VM) slot(pc uint32) (uint32, bool) {
	off := pc - v.Image.Base
	s := off / isa.InstSize
	return s, off%isa.InstSize == 0 && s < uint32(len(v.code.blocks))
}

// dispatch returns the block starting at pc. This is the code cache's
// dispatch point. A slot the machine has entered since its last flush is
// read straight from the code table, and a block of its own found in hot;
// every other entry takes fetchBlock. The entered test bounds the slot by
// the bitset's length, not the table's: no bit past the table's last slot
// is ever set.
func (v *VM) dispatch(pc uint32) (*Block, error) {
	off := pc - v.Image.Base
	if s := off / isa.InstSize; off%isa.InstSize == 0 && s/64 < uint32(len(v.entered)) && v.entered[s/64]&(1<<(s%64)) != 0 {
		return v.code.blocks[s].Load(), nil
	}
	if b := v.hot[pc/isa.InstSize%uint32(len(v.hot))]; b != nil && b.Start == pc {
		return b, nil
	}
	return v.fetchBlock(pc)
}

// fetchBlock is dispatch's slow path: a block of the machine's own, or
// the first entry of pc since the machine was built or last flushed there,
// which it counts in RunResult.Blocks. A table block that a patch covers
// is copied, and a block decoded from guest memory instrumented, for the
// machine alone; either is kept with the patch hooks attached.
func (v *VM) fetchBlock(pc uint32) (*Block, error) {
	if b, ok := v.own[pc]; ok {
		v.hot[pc/isa.InstSize%uint32(len(v.hot))] = b
		return b, nil
	}
	b, slot, err := v.decodeBlock(pc)
	if err != nil {
		return nil, err
	}
	v.blocks++
	switch {
	case slot < 0:
		v.instrument(b)
	case !v.patches.covers(b):
		v.entered[slot/64] |= 1 << (slot % 64)
		return b, nil
	default:
		b = &Block{Start: b.Start, Insts: b.Insts, hooks: slices.Clone(b.hooks)}
	}
	v.patches.attach(b)
	if v.own == nil {
		v.own = make(map[uint32]*Block)
	}
	v.own[pc] = b
	return b, nil
}

// decodeBlock returns the block at pc, decoded through the first block
// terminator. Run relies on that: only a block's last instruction
// transfers control.
//
// A block that starts on an instruction slot of the image is the code
// table's, once guest memory is checked to still hold the image's code
// bytes the table decoded, and slot is that slot. Code the guest
// overwrote, an unaligned start, and a block that runs off the table or
// into an undecodable slot are decoded from guest memory instead, with the
// same crash reasons, and slot is -1.
func (v *VM) decodeBlock(pc uint32) (b *Block, slot int, err error) {
	if s, ok := v.slot(pc); ok {
		if b := v.code.block(v, s); b != nil && v.codeIntact(b) {
			return b, int(s), nil
		}
	}
	v.guestDecodes++
	b = &Block{Start: pc}
	for addr := pc; ; addr += isa.InstSize {
		if !v.InCode(addr) {
			return nil, -1, fmt.Errorf("instruction fetch outside code region at %#x", addr)
		}
		w, ok := v.codeWord(addr)
		if !ok {
			return nil, -1, fmt.Errorf("instruction fetch fault at %#x", addr)
		}
		var raw [isa.InstSize]byte
		binary.LittleEndian.PutUint64(raw[:], w)
		in, err := isa.Decode(raw[:])
		if err != nil {
			return nil, -1, fmt.Errorf("undecodable instruction at %#x: %v", addr, err)
		}
		b.Insts = append(b.Insts, in)
		if in.Op.EndsBlock() {
			return b, -1, nil
		}
	}
}

// codeIntact reports whether guest memory still holds the image's code
// bytes under table block b, comparing one run per page.
func (v *VM) codeIntact(b *Block) bool {
	code := v.Image.Code[b.Start-v.Image.Base:][:len(b.Insts)*isa.InstSize]
	for addr := b.Start; len(code) > 0; {
		n := min(uint32(len(code)), mem.PageSize-addr%mem.PageSize)
		got, err := v.Mem.ReadRun(addr, n)
		if err != nil || !bytes.Equal(got, code[:n]) {
			return false
		}
		addr += n
		code = code[n:]
	}
	return true
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
// memory instead of taking them from its code table.
func (v *VM) GuestDecodes() int { return v.guestDecodes }

// BlocksBuilt returns how many code-table blocks this machine decoded and
// instrumented itself. A machine whose image and plugin types already have
// a warm shared table builds none.
func (v *VM) BlocksBuilt() int { return v.built }
