package mem

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// TestZeroPageBacksFreshMappings: a fresh mapping reads zero from the
// shared zero page and gets a private frame only on its first write, which
// counts as a zero fill — never as a COW break.
func TestZeroPageBacksFreshMappings(t *testing.T) {
	m := New()
	m.Map(0x8000, 4*PageSize)
	if m.PageCount() != 4 {
		t.Fatalf("page count = %d, want 4", m.PageCount())
	}
	run, err := m.ReadRun(0x8000, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !isZeroPage(run) {
		t.Fatal("fresh page does not read from the zero page")
	}
	if err := m.Write32(0x8000+PageSize+12, 0xDEAD_BEEF); err != nil {
		t.Fatal(err)
	}
	if m.ZeroFills() != 1 || m.CowBreaks() != 0 {
		t.Fatalf("zero fills/COW breaks = %d/%d, want 1/0", m.ZeroFills(), m.CowBreaks())
	}
	// A second write to the privatized page costs nothing more.
	if err := m.Write8(0x8000+PageSize, 7); err != nil {
		t.Fatal(err)
	}
	if m.ZeroFills() != 1 {
		t.Fatalf("zero fills = %d after rewriting the same page", m.ZeroFills())
	}
	if got, _ := m.Read32(0x8000 + PageSize + 12); got != 0xDEAD_BEEF {
		t.Fatalf("read back %#x", got)
	}

	// Another Memory's fresh mappings, and this one's untouched pages,
	// still read zero.
	other := New()
	other.Map(0x8000, 4*PageSize)
	for _, mm := range []*Memory{m, other} {
		b, err := mm.ReadBytes(0x8000+2*PageSize, PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if !allZero(b) {
			t.Fatal("an untouched fresh page reads nonzero")
		}
	}
	if !allZero(zeroPage[:]) {
		t.Fatal("a write reached the zero page")
	}
}

// TestZeroPageUnmarshal: all-zero pages come back from the wire on the zero
// page, and a round trip preserves every byte.
func TestZeroPageUnmarshal(t *testing.T) {
	m := New()
	m.Map(0, 3*PageSize)
	if err := m.Write8(PageSize+5, 0x5A); err != nil {
		t.Fatal(err)
	}
	raw, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Memory
	if err := back.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	for _, pn := range []uint32{0, 2} {
		run, err := back.ReadRun(pn*PageSize, PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if !isZeroPage(run) {
			t.Fatalf("all-zero page %d was given its own frame", pn)
		}
	}
	want, _ := m.ReadBytes(0, 3*PageSize)
	got, _ := back.ReadBytes(0, 3*PageSize)
	if !bytes.Equal(got, want) {
		t.Fatal("round trip changed memory contents")
	}
	if err := back.Write8(2*PageSize, 1); err != nil {
		t.Fatal(err)
	}
	if back.ZeroFills() != 1 || back.CowBreaks() != 0 {
		t.Fatalf("zero fills/COW breaks = %d/%d, want 1/0", back.ZeroFills(), back.CowBreaks())
	}
}

// TestMain runs the package's tests — the randomized Map/Clone/write
// property test against the map-backed oracle, clone chains, concurrent
// clones, the zero-copy run API — and then demands the shared zero page is
// still all zero: no path may write through a translation to it.
func TestMain(m *testing.M) {
	code := m.Run()
	if !allZero(zeroPage[:]) {
		fmt.Fprintln(os.Stderr, "the shared zero page was written")
		code = 1
	}
	os.Exit(code)
}
