package mem

import (
	"bytes"
	"math/rand"
	"testing"
)

// oracleMemory is the original map-backed sparse memory, kept verbatim as
// a test oracle: the flat page table + TLB implementation must be
// observationally identical to it under any interleaving of operations.
type oracleMemory struct {
	pages map[uint32][]byte
	cow   map[uint32]struct{}
}

func newOracle() *oracleMemory {
	return &oracleMemory{pages: make(map[uint32][]byte)}
}

func (m *oracleMemory) Map(addr, size uint32) {
	if size == 0 {
		return
	}
	first := addr / PageSize
	last := (addr + size - 1) / PageSize
	for p := first; ; p++ {
		if _, ok := m.pages[p]; !ok {
			m.pages[p] = make([]byte, PageSize)
		}
		if p == last {
			break
		}
	}
}

func (m *oracleMemory) Clone() *oracleMemory {
	c := &oracleMemory{
		pages: make(map[uint32][]byte, len(m.pages)),
		cow:   make(map[uint32]struct{}, len(m.pages)),
	}
	if m.cow == nil {
		m.cow = make(map[uint32]struct{}, len(m.pages))
	}
	for pn, p := range m.pages {
		c.pages[pn] = p
		c.cow[pn] = struct{}{}
		m.cow[pn] = struct{}{}
	}
	return c
}

func (m *oracleMemory) page(addr uint32, write bool) ([]byte, error) {
	pn := addr / PageSize
	p, ok := m.pages[pn]
	if !ok {
		return nil, &Fault{Addr: addr, Write: write}
	}
	if write && m.cow != nil {
		if _, shared := m.cow[pn]; shared {
			dup := make([]byte, PageSize)
			copy(dup, p)
			m.pages[pn] = dup
			delete(m.cow, pn)
			p = dup
		}
	}
	return p, nil
}

func (m *oracleMemory) Read8(addr uint32) (byte, error) {
	p, err := m.page(addr, false)
	if err != nil {
		return 0, err
	}
	return p[addr%PageSize], nil
}

func (m *oracleMemory) Write8(addr uint32, v byte) error {
	p, err := m.page(addr, true)
	if err != nil {
		return err
	}
	p[addr%PageSize] = v
	return nil
}

func (m *oracleMemory) Read32(addr uint32) (uint32, error) {
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

func (m *oracleMemory) Write32(addr uint32, v uint32) error {
	for i := uint32(0); i < 4; i++ {
		if err := m.Write8(addr+i, byte(v>>(8*i))); err != nil {
			return err
		}
	}
	return nil
}

func (m *oracleMemory) ReadBytes(addr, n uint32) ([]byte, error) {
	out := make([]byte, n)
	for i := uint32(0); i < n; i++ {
		b, err := m.Read8(addr + i)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func (m *oracleMemory) WriteBytes(addr uint32, b []byte) error {
	for i, v := range b {
		if err := m.Write8(addr+uint32(i), v); err != nil {
			return err
		}
	}
	return nil
}

// pair binds one Memory under test to its oracle twin; every operation is
// applied to both and the observable outcomes compared.
type pair struct {
	m *Memory
	o *oracleMemory
}

// TestPropertyAgainstOracle drives randomized interleavings of Map,
// reads, writes, bulk copies and Clone (on both sides of existing clones)
// against the map-backed oracle. Any stale-TLB bug — a translation
// surviving a Clone or a COW break — diverges the observable bytes and
// fails here.
func TestPropertyAgainstOracle(t *testing.T) {
	const (
		base = 0x10000
		span = 8 * PageSize
	)
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		root := pair{m: New(), o: newOracle()}
		root.m.Map(base, span)
		root.o.Map(base, span)
		pairs := []pair{root}

		randAddr := func() uint32 {
			// Mostly in-bounds, occasionally out of bounds to compare
			// fault behavior, and biased toward page edges.
			switch rng.Intn(8) {
			case 0:
				return base + uint32(rng.Intn(span/PageSize))*PageSize - 2 + uint32(rng.Intn(4))
			case 1:
				return uint32(rng.Uint64()) // anywhere, usually unmapped
			default:
				return base + uint32(rng.Intn(span-8))
			}
		}

		for op := 0; op < 400; op++ {
			p := pairs[rng.Intn(len(pairs))]
			switch rng.Intn(8) {
			case 0: // clone a random pair
				if len(pairs) < 6 {
					pairs = append(pairs, pair{m: p.m.Clone(), o: p.o.Clone()})
				}
			case 1: // bulk write crossing pages
				n := rng.Intn(2*PageSize + 3)
				buf := make([]byte, n)
				rng.Read(buf)
				addr := randAddr()
				em := p.m.WriteBytes(addr, buf)
				eo := p.o.WriteBytes(addr, buf)
				compareErr(t, "WriteBytes", addr, em, eo)
			case 2: // bulk read crossing pages
				n := uint32(rng.Intn(2*PageSize + 3))
				addr := randAddr()
				bm, em := p.m.ReadBytes(addr, n)
				bo, eo := p.o.ReadBytes(addr, n)
				compareErr(t, "ReadBytes", addr, em, eo)
				if em == nil && !bytes.Equal(bm, bo) {
					t.Fatalf("ReadBytes(%#x, %d) diverged", addr, n)
				}
			case 3, 4: // word write
				addr := randAddr()
				val := rng.Uint32()
				compareErr(t, "Write32", addr, p.m.Write32(addr, val), p.o.Write32(addr, val))
			case 5, 6: // word read
				addr := randAddr()
				vm, em := p.m.Read32(addr)
				vo, eo := p.o.Read32(addr)
				compareErr(t, "Read32", addr, em, eo)
				if em == nil && vm != vo {
					t.Fatalf("Read32(%#x) = %#x, oracle %#x", addr, vm, vo)
				}
			case 7: // byte write
				addr := randAddr()
				val := byte(rng.Intn(256))
				compareErr(t, "Write8", addr, p.m.Write8(addr, val), p.o.Write8(addr, val))
			}
		}

		// Final sweep: every pair's full observable contents must agree.
		for i, p := range pairs {
			got, err1 := p.m.ReadBytes(base, span)
			want, err2 := p.o.ReadBytes(base, span)
			if err1 != nil || err2 != nil {
				t.Fatalf("final sweep errs: %v, %v", err1, err2)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d pair %d: contents diverged from oracle", trial, i)
			}
		}
	}
}

func compareErr(t *testing.T, op string, addr uint32, em, eo error) {
	t.Helper()
	if (em == nil) != (eo == nil) {
		t.Fatalf("%s(%#x): impl err %v, oracle err %v", op, addr, em, eo)
	}
	if em == nil {
		return
	}
	fm, okm := em.(*Fault)
	fo, oko := eo.(*Fault)
	if !okm || !oko || fm.Addr != fo.Addr || fm.Write != fo.Write {
		t.Fatalf("%s(%#x): fault detail diverged: %v vs %v", op, addr, em, eo)
	}
}

// TestTLBStaleOnClone is the targeted regression for the headline TLB
// hazard: a writable translation cached before Clone must not let the
// original write storage it now shares with the clone.
func TestTLBStaleOnClone(t *testing.T) {
	m := New()
	m.Map(0x4000, PageSize)
	if err := m.Write32(0x4000, 0x1111_1111); err != nil { // caches a writable translation
		t.Fatal(err)
	}
	c := m.Clone()
	if err := m.Write32(0x4000, 0x2222_2222); err != nil { // must COW-break, not reuse the TLB entry
		t.Fatal(err)
	}
	got, err := c.Read32(0x4000)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x1111_1111 {
		t.Fatalf("clone sees %#x: original wrote shared storage through a stale TLB entry", got)
	}
	if m.CowBreaks() != 1 {
		t.Fatalf("cowBreaks = %d, want 1", m.CowBreaks())
	}
}

// TestTLBStaleOnCowBreak: a read-only translation cached while the page
// was shared must be refreshed when this side privatizes the page —
// otherwise later reads observe the abandoned shared storage.
func TestTLBStaleOnCowBreak(t *testing.T) {
	m := New()
	m.Map(0x8000, PageSize)
	c := m.Clone()
	if _, err := m.Read8(0x8000); err != nil { // cache read-only translation of shared page
		t.Fatal(err)
	}
	if err := m.Write8(0x8000, 0xAB); err != nil { // privatizes; must update the translation
		t.Fatal(err)
	}
	got, err := m.Read8(0x8000)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xAB {
		t.Fatalf("read after COW break = %#x, want 0xAB (stale read translation)", got)
	}
	if got, _ := c.Read8(0x8000); got != 0 {
		t.Fatalf("clone corrupted: %#x", got)
	}
}

// TestReadWriteRunContracts covers the zero-copy page-run API the
// interpreter's COPYB loop uses.
func TestReadWriteRunContracts(t *testing.T) {
	m := New()
	m.Map(0x1000, 2*PageSize)
	if err := m.WriteBytes(0x1FF0, []byte("0123456789abcdef0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	run, err := m.ReadRun(0x1FF0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if string(run) != "0123456789abcdef" {
		t.Fatalf("ReadRun = %q", run)
	}
	w, err := m.WriteRun(0x2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	copy(w, "WXYZ")
	got, err := m.ReadBytes(0x2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "WXYZ" {
		t.Fatalf("WriteRun not visible: %q", got)
	}
	if _, err := m.ReadRun(0x9000_0000, 8); err == nil {
		t.Fatal("ReadRun of unmapped page succeeded")
	}
	if _, err := m.WriteRun(0x9000_0000, 8); err == nil {
		t.Fatal("WriteRun of unmapped page succeeded")
	}
	// WriteRun on a shared page must privatize it.
	c := m.Clone()
	w, err = m.WriteRun(0x1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	copy(w, "COWb")
	if got, _ := c.ReadBytes(0x1000, 4); string(got) == "COWb" {
		t.Fatal("WriteRun wrote through shared storage")
	}
}

// TestCloneTLBIndependence: a clone starts with an empty TLB and never
// shares translations with its parent.
func TestCloneTLBIndependence(t *testing.T) {
	m := New()
	m.Map(0, PageSize)
	for i := 0; i < 4; i++ {
		clones := make([]*Memory, 4)
		for j := range clones {
			clones[j] = m.Clone()
		}
		for j, c := range clones {
			if err := c.Write8(uint32(j), byte(0x10+j)); err != nil {
				t.Fatal(err)
			}
		}
		for j, c := range clones {
			got, err := c.Read8(uint32(j))
			if err != nil || got != byte(0x10+j) {
				t.Fatalf("clone %d: %v %#x", j, err, got)
			}
			for k := range clones {
				if k == j {
					continue
				}
				if got, _ := clones[k].Read8(uint32(j)); got == byte(0x10+j) && k < j {
					t.Fatalf("clone %d write leaked into clone %d", j, k)
				}
			}
		}
	}
}
