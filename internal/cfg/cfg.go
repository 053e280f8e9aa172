// Package cfg builds control flow graphs for dynamically discovered
// procedures using the paper's combined static and dynamic analysis
// (§2.2.3): there is no static symbol information, so a basic block that
// executes for the first time and is not part of any known procedure is
// assumed to be the entry point of a new procedure, which is then traced
// out symbolically (following direct branches, ending at returns and at
// indirect jumps whose target cannot be computed).
//
// The CFG supplies the predominator relation: instruction i predominates
// instruction j if every control flow path to j first passes through i.
// ClearView uses predominators both to scope the variables available to
// invariant inference (§2.2.2) and to select candidate correlated
// invariants near a failure (§2.4.1).
package cfg

import (
	"sort"

	"repro/internal/image"
	"repro/internal/isa"
)

// BasicBlock is a maximal straight-line code sequence in a procedure.
type BasicBlock struct {
	Start uint32
	End   uint32   // one past the last instruction
	Succs []uint32 // block starts of static successors
}

// NumInstrs returns the number of instructions in the block.
func (b *BasicBlock) NumInstrs() int { return int((b.End - b.Start) / isa.InstSize) }

// Contains reports whether pc is an instruction address in the block.
func (b *BasicBlock) Contains(pc uint32) bool {
	return pc >= b.Start && pc < b.End && (pc-b.Start)%isa.InstSize == 0
}

// Proc is one dynamically discovered procedure.
type Proc struct {
	Entry  uint32
	Blocks map[uint32]*BasicBlock

	// dominators of each block (set of block starts, including itself),
	// computed lazily.
	doms map[uint32]map[uint32]bool
}

// DB is the database of known control flow graphs, shared across runs.
type DB struct {
	img        *image.Image
	procs      map[uint32]*Proc // by entry
	instrOwner map[uint32]*Proc // instruction address -> first discovering proc
}

// NewDB creates an empty CFG database for one binary image.
func NewDB(img *image.Image) *DB {
	return &DB{
		img:        img,
		procs:      make(map[uint32]*Proc),
		instrOwner: make(map[uint32]*Proc),
	}
}

// Procs returns all discovered procedures, sorted by entry address.
func (db *DB) Procs() []*Proc {
	out := make([]*Proc, 0, len(db.procs))
	for _, p := range db.procs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Entry < out[j].Entry })
	return out
}

// ProcAt returns the procedure containing the instruction at pc, or nil.
func (db *DB) ProcAt(pc uint32) *Proc { return db.instrOwner[pc] }

// NoteBlockExec records that a basic block starting at pc has entered the
// code cache (i.e. is executing for the first time). If the block is not
// part of any known procedure it is taken as the entry point of a new
// procedure, whose CFG is traced out immediately. The owning procedure is
// returned.
func (db *DB) NoteBlockExec(pc uint32) *Proc {
	if p, ok := db.instrOwner[pc]; ok {
		return p
	}
	p := db.trace(pc)
	db.procs[p.Entry] = p
	for _, b := range p.Blocks {
		for a := b.Start; a < b.End; a += isa.InstSize {
			if _, taken := db.instrOwner[a]; !taken {
				db.instrOwner[a] = p
			}
		}
	}
	return p
}

// instrSuccs returns the static successor instruction addresses of the
// instruction at pc within the same procedure. Calls fall through to the
// return point (the callee is a different procedure); returns, halts, and
// indirect jumps with uncomputable targets end the path.
func instrSuccs(in isa.Inst, pc uint32) []uint32 {
	next := pc + isa.InstSize
	switch {
	case in.Op == isa.RET || in.Op == isa.HALT || in.Op == isa.JMPR:
		return nil
	case in.Op == isa.SYS && in.Imm == isa.SysExit:
		// Statically identifiable process exit: execution never falls
		// through, so tracing past it would leak into unrelated code.
		return nil
	case in.Op == isa.JMP:
		return []uint32{next + uint32(in.Imm)}
	case in.Op.IsCondBranch():
		return []uint32{next + uint32(in.Imm), next}
	default:
		// Includes CALL/CALLR/CALLM (fall-through) and all straight-line
		// instructions.
		return []uint32{next}
	}
}

// trace symbolically executes from entry, discovering the instruction set
// and partitioning it into basic blocks at leaders.
func (db *DB) trace(entry uint32) *Proc {
	seen := map[uint32]isa.Inst{}
	leaders := map[uint32]bool{entry: true}

	work := []uint32{entry}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if _, done := seen[pc]; done {
			continue
		}
		in, ok := db.img.InstAt(pc)
		if !ok {
			continue
		}
		seen[pc] = in
		succs := instrSuccs(in, pc)
		if in.Op.EndsBlock() {
			for _, s := range succs {
				leaders[s] = true
				work = append(work, s)
			}
		} else {
			work = append(work, succs[0])
		}
	}

	// Any instruction directly after a block terminator, and any branch
	// target, is a leader; also any seen instruction whose predecessor was
	// not seen (unreachable joins are impossible here since we trace from
	// entry, but a branch target mid-straight-line splits a block).
	p := &Proc{Entry: entry, Blocks: make(map[uint32]*BasicBlock)}
	if len(seen) == 0 {
		// Entry undecodable: degenerate single empty procedure.
		p.Blocks[entry] = &BasicBlock{Start: entry, End: entry}
		return p
	}

	addrs := make([]uint32, 0, len(seen))
	for a := range seen {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	// Build blocks: walk addresses in order, starting a new block at each
	// leader or after each terminator, and ending a block when the next
	// sequential instruction was never seen (path ended).
	var cur *BasicBlock
	flush := func() {
		if cur != nil {
			p.Blocks[cur.Start] = cur
			cur = nil
		}
	}
	for i, a := range addrs {
		if cur != nil && (leaders[a] || cur.End != a) {
			flush()
		}
		if cur == nil {
			cur = &BasicBlock{Start: a}
		}
		cur.End = a + isa.InstSize
		in := seen[a]
		if in.Op.EndsBlock() {
			flush()
		} else if i+1 < len(addrs) && addrs[i+1] != a+isa.InstSize {
			// Sequential successor never decoded (shouldn't happen for
			// non-terminators, but be safe).
			flush()
		}
	}
	flush()
	// Fix up: blocks ended early by mid-block leaders fall through.
	for _, b := range p.Blocks {
		lastPC := b.End - isa.InstSize
		in := b.lastInst(seen)
		if in.Op.EndsBlock() {
			for _, s := range instrSuccs(in, lastPC) {
				if blockAt(p, s) != nil {
					b.Succs = append(b.Succs, blockStartOf(p, s))
				}
			}
		} else if nb := blockAt(p, b.End); nb != nil {
			b.Succs = append(b.Succs, blockStartOf(p, b.End))
		}
		sort.Slice(b.Succs, func(i, j int) bool { return b.Succs[i] < b.Succs[j] })
	}
	return p
}

func (b *BasicBlock) lastInst(seen map[uint32]isa.Inst) isa.Inst {
	return seen[b.End-isa.InstSize]
}

func blockAt(p *Proc, pc uint32) *BasicBlock {
	for _, b := range p.Blocks {
		if b.Contains(pc) {
			return b
		}
	}
	return nil
}

func blockStartOf(p *Proc, pc uint32) uint32 {
	if b := blockAt(p, pc); b != nil {
		return b.Start
	}
	return pc
}

// BlockOf returns the basic block containing the instruction at pc.
func (p *Proc) BlockOf(pc uint32) *BasicBlock {
	for _, b := range p.Blocks {
		if b.Contains(pc) {
			return b
		}
	}
	return nil
}

// ContainsInstr reports whether pc is an instruction of this procedure.
func (p *Proc) ContainsInstr(pc uint32) bool { return p.BlockOf(pc) != nil }

// Instrs returns all instruction addresses, sorted.
func (p *Proc) Instrs() []uint32 {
	var out []uint32
	for _, b := range p.Blocks {
		for a := b.Start; a < b.End; a += isa.InstSize {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// computeDoms runs the classic iterative dominator dataflow over blocks.
func (p *Proc) computeDoms() {
	if p.doms != nil {
		return
	}
	starts := make([]uint32, 0, len(p.Blocks))
	for s := range p.Blocks {
		starts = append(starts, s)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })

	entryBlock := p.BlockOf(p.Entry)
	preds := map[uint32][]uint32{}
	for s, b := range p.Blocks {
		for _, succ := range b.Succs {
			preds[succ] = append(preds[succ], s)
		}
	}

	all := map[uint32]bool{}
	for _, s := range starts {
		all[s] = true
	}
	doms := map[uint32]map[uint32]bool{}
	for _, s := range starts {
		if entryBlock != nil && s == entryBlock.Start {
			doms[s] = map[uint32]bool{s: true}
		} else {
			cp := make(map[uint32]bool, len(all))
			for a := range all {
				cp[a] = true
			}
			doms[s] = cp
		}
	}
	changed := true
	for changed {
		changed = false
		for _, s := range starts {
			if entryBlock != nil && s == entryBlock.Start {
				continue
			}
			var inter map[uint32]bool
			for _, pd := range preds[s] {
				if inter == nil {
					inter = make(map[uint32]bool, len(doms[pd]))
					for a := range doms[pd] {
						inter[a] = true
					}
					continue
				}
				for a := range inter {
					if !doms[pd][a] {
						delete(inter, a)
					}
				}
			}
			if inter == nil {
				inter = map[uint32]bool{}
			}
			inter[s] = true
			if len(inter) != len(doms[s]) {
				doms[s] = inter
				changed = true
				continue
			}
			for a := range inter {
				if !doms[s][a] {
					doms[s] = inter
					changed = true
					break
				}
			}
		}
	}
	p.doms = doms
}

// Predominates reports whether the instruction at i predominates the
// instruction at j (reflexively: every instruction predominates itself).
func (p *Proc) Predominates(i, j uint32) bool {
	bi, bj := p.BlockOf(i), p.BlockOf(j)
	if bi == nil || bj == nil {
		return false
	}
	if bi.Start == bj.Start {
		return i <= j
	}
	p.computeDoms()
	return p.doms[bj.Start][bi.Start]
}

// Predominators returns the instruction addresses that predominate pc,
// ordered earliest-executing first (dominator-chain order, then address
// within a block). The failure instruction itself is last.
func (p *Proc) Predominators(pc uint32) []uint32 {
	bj := p.BlockOf(pc)
	if bj == nil {
		return nil
	}
	p.computeDoms()
	var blocks []uint32
	for s := range p.doms[bj.Start] {
		blocks = append(blocks, s)
	}
	// Dominators of a block form a chain; order by chain depth.
	sort.Slice(blocks, func(i, j int) bool {
		return len(p.doms[blocks[i]]) < len(p.doms[blocks[j]])
	})
	var out []uint32
	for _, s := range blocks {
		b := p.Blocks[s]
		end := b.End
		if s == bj.Start {
			end = pc + isa.InstSize
		}
		for a := b.Start; a < end; a += isa.InstSize {
			out = append(out, a)
		}
	}
	return out
}
