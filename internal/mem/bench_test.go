package mem

import (
	"testing"
)

// benchMemory maps a 64-page working set with deterministic contents.
func benchMemory(b *testing.B) *Memory {
	b.Helper()
	m := New()
	m.Map(0x1000, 64*PageSize)
	for i := uint32(0); i < 64*PageSize; i += 4 {
		if err := m.Write32(0x1000+i, i*2654435761); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// BenchmarkRead32 sweeps word reads across the working set — the
// interpreter's LOAD fast path.
func BenchmarkRead32(b *testing.B) {
	m := benchMemory(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		v, err := m.Read32(0x1000 + uint32(i*4)%(64*PageSize-4))
		if err != nil {
			b.Fatal(err)
		}
		sink += v
	}
	_ = sink
}

// BenchmarkWrite32 sweeps word writes — the STORE fast path, with no COW
// in play.
func BenchmarkWrite32(b *testing.B) {
	m := benchMemory(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Write32(0x1000+uint32(i*4)%(64*PageSize-4), uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWrite32AfterClone measures the write path while every page is
// COW-shared: the first write per page privatizes it, the rest take the
// writable fast path again.
func BenchmarkWrite32AfterClone(b *testing.B) {
	m := benchMemory(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			b.StopTimer()
			_ = m.Clone() // reshare all pages
			b.StartTimer()
		}
		if err := m.Write32(0x1000+uint32(i*4)%(64*PageSize-4), uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadBytes4K copies one page-sized run — the SYS write /
// instruction-fetch bulk path.
func BenchmarkReadBytes4K(b *testing.B) {
	m := benchMemory(b)
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ReadBytes(0x1800, 4096); err != nil { // unaligned: straddles 2 pages
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteBytes4K writes one page-sized run — the SYS read bulk path.
func BenchmarkWriteBytes4K(b *testing.B) {
	m := benchMemory(b)
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i)
	}
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.WriteBytes(0x1800, buf); err != nil {
			b.Fatal(err)
		}
	}
}
