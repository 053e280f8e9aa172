package mem

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// TestCloneIsolation is the core COW property: after a clone, writes on
// either side are invisible to the other, for randomized write sequences.
func TestCloneIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		m := New()
		m.Map(0x1000, 4*PageSize)
		for i := 0; i < 64; i++ {
			if err := m.Write32(0x1000+uint32(rng.Intn(4*PageSize-4)), rng.Uint32()); err != nil {
				t.Fatal(err)
			}
		}
		c := m.Clone()

		ref := func(src *Memory) []byte {
			b, err := src.ReadBytes(0x1000, 4*PageSize)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		origBefore, cloneBefore := ref(m), ref(c)
		if !bytes.Equal(origBefore, cloneBefore) {
			t.Fatal("clone differs from original before any write")
		}

		// Mutate the clone: the original must not change.
		for i := 0; i < 32; i++ {
			if err := c.Write8(0x1000+uint32(rng.Intn(4*PageSize)), byte(rng.Intn(256))); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(ref(m), origBefore) {
			t.Fatal("mutating the clone leaked into the original")
		}

		// Mutate the original: the clone keeps its own view.
		cloneView := ref(c)
		for i := 0; i < 32; i++ {
			if err := m.Write8(0x1000+uint32(rng.Intn(4*PageSize)), byte(rng.Intn(256))); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(ref(c), cloneView) {
			t.Fatal("mutating the original leaked into the clone")
		}
	}
}

// TestCloneOfCloneChains verifies that chained clones stay independent.
func TestCloneOfCloneChains(t *testing.T) {
	m := New()
	m.Map(0, PageSize)
	if err := m.Write32(0, 0x11111111); err != nil {
		t.Fatal(err)
	}
	c1 := m.Clone()
	c2 := c1.Clone()
	if err := c1.Write32(0, 0x22222222); err != nil {
		t.Fatal(err)
	}
	if err := m.Write32(0, 0x33333333); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    *Memory
		want uint32
	}{{"orig", m, 0x33333333}, {"c1", c1, 0x22222222}, {"c2", c2, 0x11111111}} {
		got, err := tc.m.Read32(0)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: got %#x want %#x", tc.name, got, tc.want)
		}
	}
}

// TestCloneDirtyPageCost verifies the O(dirty pages) property: only pages
// actually written after the clone are privatized.
func TestCloneDirtyPageCost(t *testing.T) {
	m := New()
	m.Map(0, 64*PageSize)
	c := m.Clone()
	for i := 0; i < 3; i++ {
		if err := c.Write8(uint32(i)*PageSize, 1); err != nil {
			t.Fatal(err)
		}
		// Second write to the same page must not copy again.
		if err := c.Write8(uint32(i)*PageSize+8, 2); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.CowBreaks(); got != 3 {
		t.Fatalf("clone privatized %d pages, want 3", got)
	}
	if got := m.CowBreaks(); got != 0 {
		t.Fatalf("original privatized %d pages, want 0", got)
	}
}

// TestConcurrentClones exercises the template fan-out pattern: many
// goroutines clone the same frozen Memory at once and write their clones.
// Run with -race to validate the synchronization contract.
func TestConcurrentClones(t *testing.T) {
	m := New()
	m.Map(0, 8*PageSize)
	if err := m.Write32(16, 0xABCD); err != nil {
		t.Fatal(err)
	}
	tmpl := m.Clone() // frozen source; only cloned below, never written
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := tmpl.Clone()
			for i := 0; i < 200; i++ {
				if err := c.Write32(uint32(i%8)*PageSize, uint32(w)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, err := tmpl.Read32(16)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xABCD {
		t.Fatalf("template corrupted by concurrent clone writers: %#x", got)
	}
}
