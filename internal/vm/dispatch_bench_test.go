package vm

import (
	"encoding/binary"
	"testing"

	"repro/internal/asm"
	"repro/internal/image"
	"repro/internal/isa"
)

// buildHotImage assembles the dispatch microbenchmark workload: a counted
// loop whose trip count arrives via the input stream, so one Run can be
// scaled to exactly b.N loop iterations. The 9-instruction body is
// straight-line arithmetic plus a store/load pair, ending in a conditional
// backward branch, so every iteration re-enters the same table slot.
func buildHotImage(t testing.TB) *image.Image {
	im, _ := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		// Read the 4-byte trip count into a stack slot.
		a.MovRR(isa.EDX, isa.ESP)
		a.SubRI(isa.EDX, 64)
		a.MovRR(isa.EAX, isa.EDX)
		a.MovRI(isa.ECX, 4)
		a.Sys(isa.SysRead)
		a.Load(isa.EBX, asm.M(isa.EDX, 0))
		a.CmpRI(isa.EBX, 0)
		a.Je("done")
		a.Label("loop")
		a.AddRI(isa.EAX, 3)
		a.XorRI(isa.EAX, 0x5A)
		a.MulRI(isa.EAX, 7)
		a.Store(asm.M(isa.EDX, 8), isa.EAX)
		a.Load(isa.ESI, asm.M(isa.EDX, 8))
		a.AddRR(isa.EAX, isa.ESI)
		a.SubRI(isa.EBX, 1)
		a.CmpRI(isa.EBX, 0)
		a.Jne("loop")
		a.Label("done")
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
	})
	return im
}

// tripInput encodes a loop trip count for buildHotImage programs.
func tripInput(n uint64) []byte {
	input := make([]byte, 4)
	binary.LittleEndian.PutUint32(input, uint32(n))
	return input
}

// runHotLoop executes one machine for exactly b.N trips of the hot loop,
// so ns/op and allocs/op are per loop iteration (~9 instructions). The
// per-run constants (machine construction, block decode, termination)
// are excluded via ResetTimer or amortize to 0 allocs/op over b.N.
func runHotLoop(b *testing.B, cfg Config) {
	cfg.Image = buildHotImage(b)
	cfg.Input = tripInput(uint64(b.N))
	cfg.MaxSteps = 1 << 62
	v, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	res := v.Run()
	b.StopTimer()
	if res.Outcome != OutcomeExit || res.ExitCode != 0 {
		b.Fatalf("res = %+v", res)
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(res.Steps)/secs/1e6, "MIPS")
	}
	b.ReportMetric(float64(res.Steps)/float64(b.N), "instrs/op")
}

// BenchmarkDispatchHot is the unhooked straight-line hot path: no plugins,
// no coverage. The acceptance bar is 0 allocs/op.
func BenchmarkDispatchHot(b *testing.B) {
	runHotLoop(b, Config{})
}

// BenchmarkDispatchCoverage measures the same loop with an edge-coverage
// accumulator attached — the fuzzing configuration's dispatch cost.
func BenchmarkDispatchCoverage(b *testing.B) {
	runHotLoop(b, Config{Coverage: NewCoverage()})
}

// BenchmarkDispatchHooked attaches a minimal tracing hook to every
// instruction — the fully instrumented worst case.
func BenchmarkDispatchHooked(b *testing.B) {
	var hooks uint64
	pl := pluginFunc{name: "bench-trace", f: func(blk *Block) {
		for i := range blk.Insts {
			blk.AddHook(i, PrioTrace, func(ctx *Ctx) error {
				hooks++
				return nil
			})
		}
	}}
	runHotLoop(b, Config{Plugins: []Plugin{pl}})
}

// BenchmarkCopyB measures the block-copy instruction's throughput: one op
// copies 4 KiB between two heap buffers (SetBytes reports MB/s).
func BenchmarkCopyB(b *testing.B) {
	im, _ := buildImage(b, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRR(isa.EDX, isa.ESP)
		a.SubRI(isa.EDX, 64)
		a.MovRR(isa.EAX, isa.EDX)
		a.MovRI(isa.ECX, 4)
		a.Sys(isa.SysRead)
		a.Load(isa.EBX, asm.M(isa.EDX, 0))
		// Two 4 KiB heap buffers.
		a.MovRI(isa.EAX, 4096)
		a.Sys(isa.SysAlloc)
		a.MovRR(isa.EBP, isa.EAX) // src
		a.MovRI(isa.EAX, 4096)
		a.Sys(isa.SysAlloc)
		a.MovRR(isa.EDX, isa.EAX) // dst
		a.CmpRI(isa.EBX, 0)
		a.Je("done")
		a.Label("loop")
		a.MovRR(isa.ESI, isa.EBP)
		a.MovRR(isa.EDI, isa.EDX)
		a.MovRI(isa.ECX, 4096)
		a.CopyB()
		a.SubRI(isa.EBX, 1)
		a.CmpRI(isa.EBX, 0)
		a.Jne("loop")
		a.Label("done")
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
	})
	v, err := New(Config{Image: im, Input: tripInput(uint64(b.N)), MaxSteps: 1 << 62})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	res := v.Run()
	b.StopTimer()
	if res.Outcome != OutcomeExit || res.ExitCode != 0 {
		b.Fatalf("res = %+v", res)
	}
}

// pluginFunc adapts a function to the Plugin interface for benchmarks.
type pluginFunc struct {
	name string
	f    func(*Block)
}

func (p pluginFunc) Name() string        { return p.name }
func (p pluginFunc) Instrument(b *Block) { p.f(b) }
