// Package mem implements the simulated 32-bit address space: a sparse paged
// memory, and a heap allocator that places canary words at block boundaries
// and maintains the allocation map that the Heap Guard monitor consults.
//
// Two allocator behaviours are deliberate hosts for the paper's defect
// classes: freed blocks are recycled LIFO per size class *without being
// cleared* (use-after-free and uninitialized-reallocation defects, Bugzilla
// 269095/312278/320182), and out-of-bounds writes inside the mapped heap
// arena do not fault — they silently corrupt, exactly as on real hardware,
// unless Heap Guard notices a canary being overwritten.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// PageSize is the granularity of the sparse address space.
const PageSize = 4096

// Page-table geometry. A 32-bit address splits into a 20-bit page number
// and a 12-bit offset; the page number splits again into a 10-bit group
// index and a 10-bit slot, so the whole space is reachable through one
// fixed top-level array of group pointers — no map lookups on any access
// path. A group spans 4 MiB, and the layouts in use (code, heap, stack)
// each land in their own group, so a typical machine materializes 3-4.
const (
	pageShift  = 12
	pageMask   = PageSize - 1
	groupShift = 10
	groupPages = 1 << groupShift
	groupMask  = groupPages - 1
	numGroups  = 1 << (32 - pageShift - groupShift)
)

// Software TLB geometry: a small direct-mapped cache of recent
// (page number → frame, writable) translations in front of the page
// table. 64 entries cover the working set of the interpreter loops; the
// index is the low page-number bits, so code, heap, and stack pages
// (which differ in high bits) do not thrash each other.
const (
	tlbSize = 64
	tlbMask = tlbSize - 1
)

// Canary is the value Heap Guard plants at allocated-block boundaries.
const Canary uint32 = 0xFDFDFDFD

// Fault reports an access to unmapped memory. The execution environment
// converts faults into crashes (not monitor-detected failures).
type Fault struct {
	Addr  uint32
	Write bool
}

func (f *Fault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	return fmt.Sprintf("memory fault: %s at %#x", kind, f.Addr)
}

// zeroPage backs every freshly mapped page until its first write. It is
// never written: translations to it are cached read-only, so the first
// write to a fresh page takes the slow path and gets a private frame —
// mapping the 256 KiB stack of a machine costs page-table entries, not
// 256 KiB of zeroed memory.
var zeroPage [PageSize]byte

// isZeroPage reports whether a frame is the shared zero page.
func isZeroPage(p []byte) bool { return &p[0] == &zeroPage[0] }

// pageGroup is one second-level page-table node: storage and COW metadata
// for a 4 MiB-aligned run of 1024 pages. shared[i] marks a page whose
// storage is referenced by at least one clone; it must be copied before
// this Memory writes it.
type pageGroup struct {
	pages  [groupPages][]byte
	shared [groupPages]bool
}

// tlbEntry caches one translation. tag is the page number plus one so the
// zero value never matches; page is the backing frame; writable is false
// for COW-shared pages and the zero page, forcing writes through the slow
// path that gives the page a private frame first.
type tlbEntry struct {
	tag      uint32
	writable bool
	page     []byte
}

// Memory is a sparse paged 32-bit address space.
//
// The access hierarchy is TLB → page table → COW: the inlined fast paths
// of Read8/Write8/Read32/Write32 hit the direct-mapped TLB; a miss walks
// the flat two-level page table (two array indexings, no maps) and refills
// the TLB; a write to a COW-shared page privatizes it first, and so does
// the first write to a freshly mapped page, which reads from the shared
// zero page until then. The TLB is flushed whenever a translation could go
// stale: Clone marks every page shared (cached writable bits would bypass
// COW), UnmarshalBinary replaces the whole table, and a COW break or zero
// fill rewrites the entry in place.
//
// Clone produces copy-on-write clones: the clone and the original share
// page storage until one of them writes a shared page, at which point the
// writer copies just that page. A clone therefore costs one page-table
// copy up front and one page copy per page actually dirtied — the
// property the snapshot/replay machinery depends on.
type Memory struct {
	groups [numGroups]*pageGroup
	tlb    [tlbSize]tlbEntry

	// mu serializes Clone calls so many goroutines may clone the same
	// frozen Memory (e.g. restoring workers from one snapshot)
	// concurrently. Reads and writes are NOT synchronized: a Memory is
	// owned by one machine at a time.
	mu sync.Mutex

	pageCount int
	cowBreaks uint64
	zeroFills uint64
}

// New returns an empty address space.
func New() *Memory {
	return &Memory{}
}

// flushTLB invalidates every cached translation.
func (m *Memory) flushTLB() {
	for i := range m.tlb {
		m.tlb[i] = tlbEntry{}
	}
}

// Clone returns a copy-on-write snapshot of the address space. Both the
// original and the clone remain writable; the first write to a shared page
// from either side copies that page. Clone is safe to call concurrently on
// the same receiver as long as no goroutine is concurrently writing it.
func (m *Memory) Clone() *Memory {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &Memory{pageCount: m.pageCount}
	for gi, g := range m.groups {
		if g == nil {
			continue
		}
		// Mark every mapped page shared on the original first, then copy
		// the group wholesale so the clone inherits the shared bits.
		for si := range g.pages {
			if g.pages[si] != nil {
				g.shared[si] = true
			}
		}
		cg := new(pageGroup)
		*cg = *g
		c.groups[gi] = cg
	}
	// Cached writable translations would let the original write shared
	// storage without breaking COW.
	m.flushTLB()
	return c
}

// PageCount returns the number of mapped pages.
func (m *Memory) PageCount() int { return m.pageCount }

// CowBreaks returns how many shared pages this Memory has privatized —
// the dirty-page count a snapshot's cost is proportional to.
func (m *Memory) CowBreaks() uint64 { return m.cowBreaks }

// ZeroFills returns how many freshly mapped pages this Memory has given a
// private frame on their first write. A page still on the zero page when
// the Memory is cloned is shared like any other, so its first write after
// the clone counts as a COW break instead.
func (m *Memory) ZeroFills() uint64 { return m.zeroFills }

// Map makes [addr, addr+size) accessible, zero filled. New pages map onto
// the shared zero page; each gets its own frame on its first write.
func (m *Memory) Map(addr, size uint32) {
	if size == 0 {
		return
	}
	first := addr >> pageShift
	last := (addr + size - 1) >> pageShift
	for pn := first; ; pn++ {
		g := m.groups[pn>>groupShift]
		if g == nil {
			g = new(pageGroup)
			m.groups[pn>>groupShift] = g
		}
		if g.pages[pn&groupMask] == nil {
			g.pages[pn&groupMask] = zeroPage[:]
			m.pageCount++
		}
		if pn == last {
			break
		}
	}
}

// Mapped reports whether addr is accessible.
func (m *Memory) Mapped(addr uint32) bool {
	pn := addr >> pageShift
	g := m.groups[pn>>groupShift]
	return g != nil && g.pages[pn&groupMask] != nil
}

// readPage walks the page table for the page containing addr, refilling
// the TLB on success. It is the shared miss path of every read.
func (m *Memory) readPage(addr uint32) ([]byte, error) {
	pn := addr >> pageShift
	g := m.groups[pn>>groupShift]
	if g == nil {
		return nil, &Fault{Addr: addr}
	}
	p := g.pages[pn&groupMask]
	if p == nil {
		return nil, &Fault{Addr: addr}
	}
	m.tlb[pn&tlbMask] = tlbEntry{tag: pn + 1, writable: !g.shared[pn&groupMask] && !isZeroPage(p), page: p}
	return p, nil
}

// writePage walks the page table for a writable frame, breaking COW if
// the page is shared or zero-filling it if it is still on the zero page,
// and refilling the TLB with a writable translation.
func (m *Memory) writePage(addr uint32) ([]byte, error) {
	pn := addr >> pageShift
	g := m.groups[pn>>groupShift]
	if g == nil {
		return nil, &Fault{Addr: addr, Write: true}
	}
	si := pn & groupMask
	p := g.pages[si]
	if p == nil {
		return nil, &Fault{Addr: addr, Write: true}
	}
	if shared := g.shared[si]; shared || isZeroPage(p) {
		dup := make([]byte, PageSize)
		if shared {
			copy(dup, p)
			m.cowBreaks++
		} else {
			m.zeroFills++
		}
		g.pages[si] = dup
		g.shared[si] = false
		p = dup
	}
	m.tlb[pn&tlbMask] = tlbEntry{tag: pn + 1, writable: true, page: p}
	return p, nil
}

// Read8 loads one byte.
func (m *Memory) Read8(addr uint32) (byte, error) {
	pn := addr >> pageShift
	if e := &m.tlb[pn&tlbMask]; e.tag == pn+1 {
		return e.page[addr&pageMask], nil
	}
	p, err := m.readPage(addr)
	if err != nil {
		return 0, err
	}
	return p[addr&pageMask], nil
}

// Write8 stores one byte.
func (m *Memory) Write8(addr uint32, v byte) error {
	pn := addr >> pageShift
	if e := &m.tlb[pn&tlbMask]; e.tag == pn+1 && e.writable {
		e.page[addr&pageMask] = v
		return nil
	}
	p, err := m.writePage(addr)
	if err != nil {
		return err
	}
	p[addr&pageMask] = v
	return nil
}

// Read32 loads a little-endian 32-bit word. The word may straddle pages.
func (m *Memory) Read32(addr uint32) (uint32, error) {
	if o := addr & pageMask; o <= PageSize-4 {
		pn := addr >> pageShift
		p := m.tlb[pn&tlbMask].page
		if m.tlb[pn&tlbMask].tag != pn+1 {
			var err error
			p, err = m.readPage(addr)
			if err != nil {
				return 0, err
			}
		}
		return uint32(p[o]) | uint32(p[o+1])<<8 | uint32(p[o+2])<<16 | uint32(p[o+3])<<24, nil
	}
	var v uint32
	for i := uint32(0); i < 4; i++ {
		b, err := m.Read8(addr + i)
		if err != nil {
			return 0, err
		}
		v |= uint32(b) << (8 * i)
	}
	return v, nil
}

// Write32 stores a little-endian 32-bit word.
func (m *Memory) Write32(addr uint32, v uint32) error {
	if o := addr & pageMask; o <= PageSize-4 {
		pn := addr >> pageShift
		e := &m.tlb[pn&tlbMask]
		p := e.page
		if e.tag != pn+1 || !e.writable {
			var err error
			p, err = m.writePage(addr)
			if err != nil {
				return err
			}
		}
		p[o] = byte(v)
		p[o+1] = byte(v >> 8)
		p[o+2] = byte(v >> 16)
		p[o+3] = byte(v >> 24)
		return nil
	}
	for i := uint32(0); i < 4; i++ {
		if err := m.Write8(addr+i, byte(v>>(8*i))); err != nil {
			return err
		}
	}
	return nil
}

// ReadBytes copies n bytes starting at addr, translating each page once
// and copying page-run-at-a-time.
func (m *Memory) ReadBytes(addr, n uint32) ([]byte, error) {
	out := make([]byte, n)
	var pos uint32
	for pos < n {
		cur := addr + pos
		off := cur & pageMask
		run := PageSize - off
		if rem := n - pos; run > rem {
			run = rem
		}
		p, err := m.readPage(cur)
		if err != nil {
			return nil, err
		}
		copy(out[pos:pos+run], p[off:off+run])
		pos += run
	}
	return out, nil
}

// WriteBytes copies b into memory starting at addr, translating (and
// COW-breaking) each page once and copying page-run-at-a-time. On a fault
// partway through, bytes before the unmapped page remain written, exactly
// as with the byte-at-a-time loop this replaces.
func (m *Memory) WriteBytes(addr uint32, b []byte) error {
	n := uint32(len(b))
	var pos uint32
	for pos < n {
		cur := addr + pos
		off := cur & pageMask
		run := PageSize - off
		if rem := n - pos; run > rem {
			run = rem
		}
		p, err := m.writePage(cur)
		if err != nil {
			return err
		}
		copy(p[off:off+run], b[pos:pos+run])
		pos += run
	}
	return nil
}

// ReadRun returns a read-only view of the n bytes at addr. The run must
// not cross a page boundary (n <= PageSize - addr%PageSize); the returned
// slice aliases the page storage (possibly the shared zero page) and is
// valid only until the next Clone, COW break, zero fill, or
// UnmarshalBinary. This is the zero-copy primitive the interpreter's
// block-copy loop builds on.
func (m *Memory) ReadRun(addr, n uint32) ([]byte, error) {
	pn := addr >> pageShift
	e := &m.tlb[pn&tlbMask]
	p := e.page
	if e.tag != pn+1 {
		var err error
		p, err = m.readPage(addr)
		if err != nil {
			return nil, err
		}
	}
	off := addr & pageMask
	return p[off : off+n], nil
}

// WriteRun returns a writable view of the n bytes at addr, breaking COW
// if the page is shared and zero-filling it if it is fresh. The same
// contract as ReadRun applies.
func (m *Memory) WriteRun(addr, n uint32) ([]byte, error) {
	pn := addr >> pageShift
	e := &m.tlb[pn&tlbMask]
	p := e.page
	if e.tag != pn+1 || !e.writable {
		var err error
		p, err = m.writePage(addr)
		if err != nil {
			return nil, err
		}
	}
	off := addr & pageMask
	return p[off : off+n], nil
}

// forEachPage visits every mapped page in ascending page-number order —
// the iteration order the two-level table provides for free (no sort).
func (m *Memory) forEachPage(f func(pn uint32, p []byte)) {
	for gi, g := range m.groups {
		if g == nil {
			continue
		}
		for si := range g.pages {
			if p := g.pages[si]; p != nil {
				f(uint32(gi)<<groupShift|uint32(si), p)
			}
		}
	}
}

// MarshalBinary serializes the address space: a page count followed by
// (page index, flag, data) records in ascending page order. All-zero pages
// are encoded as a flag byte only, so sparse spaces stay small on the wire.
// gob uses this automatically, which is how snapshots inside a
// replay.Recording travel between community nodes and the manager.
func (m *Memory) MarshalBinary() ([]byte, error) {
	out := make([]byte, 4, 4+m.pageCount*5)
	binary.LittleEndian.PutUint32(out, uint32(m.pageCount))
	var pnb [4]byte
	m.forEachPage(func(pn uint32, p []byte) {
		binary.LittleEndian.PutUint32(pnb[:], pn)
		out = append(out, pnb[:]...)
		if isZeroPage(p) || allZero(p) {
			out = append(out, 0)
			return
		}
		out = append(out, 1)
		out = append(out, p...)
	})
	return out, nil
}

// UnmarshalBinary reconstructs an address space serialized by
// MarshalBinary. All-zero pages map onto the zero page, as fresh mappings
// do; every other page is owned (no sharing).
func (m *Memory) UnmarshalBinary(b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("mem: truncated page table header: %d bytes", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	// Each page record is at least 5 bytes, so a count that cannot fit in
	// the remaining payload is corrupt. Checking before decoding keeps a
	// hostile page count (recordings arrive over the community transport)
	// from forcing giant allocations.
	if uint64(n)*5 > uint64(len(b)) {
		return fmt.Errorf("mem: page count %d exceeds payload (%d bytes)", n, len(b))
	}
	m.groups = [numGroups]*pageGroup{}
	m.flushTLB()
	m.pageCount = 0
	m.cowBreaks = 0
	m.zeroFills = 0
	for i := uint32(0); i < n; i++ {
		if len(b) < 5 {
			return fmt.Errorf("mem: truncated page record %d", i)
		}
		pn := binary.LittleEndian.Uint32(b)
		flag := b[4]
		b = b[5:]
		if pn >= 1<<(32-pageShift) {
			return fmt.Errorf("mem: page index %#x out of range", pn)
		}
		page := zeroPage[:]
		if flag != 0 {
			if len(b) < PageSize {
				return fmt.Errorf("mem: truncated page data for page %#x", pn)
			}
			page = make([]byte, PageSize)
			copy(page, b[:PageSize])
			b = b[PageSize:]
		}
		g := m.groups[pn>>groupShift]
		if g == nil {
			g = new(pageGroup)
			m.groups[pn>>groupShift] = g
		}
		if g.pages[pn&groupMask] == nil {
			m.pageCount++
		}
		g.pages[pn&groupMask] = page
		g.shared[pn&groupMask] = false
	}
	return nil
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// Block is one allocated heap block in the allocation map.
type Block struct {
	Addr uint32 // first usable byte
	Size uint32 // usable size (rounded up to 4)
}

// Heap is a canary-guarded bump allocator with LIFO per-size recycling.
type Heap struct {
	mem      *Memory
	base     uint32
	limit    uint32
	brk      uint32
	blocks   []Block             // sorted by Addr
	freelist map[uint32][]uint32 // size -> LIFO of recycled block addresses
	allocs   uint64
	frees    uint64
}

// NewHeap creates a heap managing [base, base+size).
func NewHeap(m *Memory, base, size uint32) *Heap {
	return &Heap{
		mem:      m,
		base:     base,
		limit:    base + size,
		brk:      base,
		freelist: make(map[uint32][]uint32),
	}
}

// Base returns the lowest heap address.
func (h *Heap) Base() uint32 { return h.base }

// Limit returns one past the highest heap address.
func (h *Heap) Limit() uint32 { return h.limit }

// Contains reports whether addr lies inside the heap arena.
func (h *Heap) Contains(addr uint32) bool { return addr >= h.base && addr < h.limit }

// Stats returns cumulative allocation and free counts.
func (h *Heap) Stats() (allocs, frees uint64) { return h.allocs, h.frees }

func roundUp4(n uint32) uint32 { return (n + 3) &^ 3 }

// Alloc returns a block of at least size bytes, with canary words planted
// immediately before and after it. Recycled blocks are returned with their
// previous contents intact (deliberately — see the package comment).
func (h *Heap) Alloc(size uint32) (uint32, error) {
	size = roundUp4(size)
	if size == 0 {
		size = 4
	}
	h.allocs++
	if fl := h.freelist[size]; len(fl) > 0 {
		addr := fl[len(fl)-1]
		h.freelist[size] = fl[:len(fl)-1]
		h.insertBlock(Block{Addr: addr, Size: size})
		// Canaries were planted when the block was first carved and are
		// re-planted here in case the application overwrote them while
		// the block was live (a legitimate in-bounds canary-value write).
		h.plantCanaries(addr, size)
		return addr, nil
	}
	need := size + 8 // front canary + block + rear canary
	if h.brk+need > h.limit || h.brk+need < h.brk {
		return 0, fmt.Errorf("heap: out of memory: %d bytes requested", size)
	}
	start := h.brk
	h.brk += need
	h.mem.Map(start, need)
	addr := start + 4
	h.plantCanaries(addr, size)
	h.insertBlock(Block{Addr: addr, Size: size})
	return addr, nil
}

func (h *Heap) plantCanaries(addr, size uint32) {
	// The canary pages are always mapped because they were carved from brk.
	_ = h.mem.Write32(addr-4, Canary)
	_ = h.mem.Write32(addr+size, Canary)
}

func (h *Heap) insertBlock(b Block) {
	i := sort.Search(len(h.blocks), func(i int) bool { return h.blocks[i].Addr >= b.Addr })
	h.blocks = append(h.blocks, Block{})
	copy(h.blocks[i+1:], h.blocks[i:])
	h.blocks[i] = b
}

// Free releases the block at addr. Contents are not cleared. Freeing an
// address that is not a live block start is an error (the simulated
// application's defects never double-free; they free too early).
func (h *Heap) Free(addr uint32) error {
	i := sort.Search(len(h.blocks), func(i int) bool { return h.blocks[i].Addr >= addr })
	if i >= len(h.blocks) || h.blocks[i].Addr != addr {
		return fmt.Errorf("heap: free of non-allocated address %#x", addr)
	}
	size := h.blocks[i].Size
	h.blocks = append(h.blocks[:i], h.blocks[i+1:]...)
	h.freelist[size] = append(h.freelist[size], addr)
	h.frees++
	return nil
}

// Realloc allocates a new block of the requested size, copies the smaller
// of the two sizes, and frees the old block.
func (h *Heap) Realloc(addr, size uint32) (uint32, error) {
	b, ok := h.FindBlock(addr)
	if !ok || b.Addr != addr {
		return 0, fmt.Errorf("heap: realloc of non-allocated address %#x", addr)
	}
	na, err := h.Alloc(size)
	if err != nil {
		return 0, err
	}
	n := b.Size
	if size < n {
		n = size
	}
	data, err := h.mem.ReadBytes(addr, n)
	if err != nil {
		return 0, err
	}
	if err := h.mem.WriteBytes(na, data); err != nil {
		return 0, err
	}
	if err := h.Free(addr); err != nil {
		return 0, err
	}
	return na, nil
}

// FindBlock returns the allocated block containing addr, if any. This is
// the allocation-map lookup Heap Guard performs when a write target holds
// the canary value (§2.3).
func (h *Heap) FindBlock(addr uint32) (Block, bool) {
	i := sort.Search(len(h.blocks), func(i int) bool { return h.blocks[i].Addr > addr })
	if i == 0 {
		return Block{}, false
	}
	b := h.blocks[i-1]
	if addr >= b.Addr && addr < b.Addr+b.Size {
		return b, true
	}
	return Block{}, false
}

// LiveBlocks returns a copy of the allocation map, sorted by address.
func (h *Heap) LiveBlocks() []Block {
	return append([]Block(nil), h.blocks...)
}

// HeapState is a self-contained deep copy of the allocator bookkeeping —
// everything a Heap holds besides the backing Memory. All fields are
// exported so the state gob-serializes inside machine snapshots.
type HeapState struct {
	Base     uint32
	Limit    uint32
	Brk      uint32
	Blocks   []Block
	Freelist map[uint32][]uint32
	Allocs   uint64
	Frees    uint64
}

// State captures the allocator bookkeeping. The copy is deep: mutating the
// heap afterwards never changes the returned state.
func (h *Heap) State() HeapState {
	fl := make(map[uint32][]uint32, len(h.freelist))
	for size, list := range h.freelist {
		if len(list) == 0 {
			continue
		}
		fl[size] = append([]uint32(nil), list...)
	}
	return HeapState{
		Base:     h.base,
		Limit:    h.limit,
		Brk:      h.brk,
		Blocks:   append([]Block(nil), h.blocks...),
		Freelist: fl,
		Allocs:   h.allocs,
		Frees:    h.frees,
	}
}

// NewHeapFromState rebuilds an allocator over m from captured bookkeeping.
// The state is copied in, so one HeapState may seed many heaps (the replay
// farm restores every worker from the same snapshot).
func NewHeapFromState(m *Memory, s HeapState) *Heap {
	fl := make(map[uint32][]uint32, len(s.Freelist))
	for size, list := range s.Freelist {
		fl[size] = append([]uint32(nil), list...)
	}
	return &Heap{
		mem:      m,
		base:     s.Base,
		limit:    s.Limit,
		brk:      s.Brk,
		blocks:   append([]Block(nil), s.Blocks...),
		freelist: fl,
		allocs:   s.Allocs,
		frees:    s.Frees,
	}
}
