package vm

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/asm"
	"repro/internal/image"
	"repro/internal/isa"
)

// TestHookedLoopZeroAllocs is the instrumented twin of TestHotLoopZeroAllocs:
// with a tracing hook on every instruction, Run must still allocate nothing
// per instruction. Without the reusable hook context, a fresh Ctx per
// instruction made 100k extra iterations allocate ~900k extra objects.
func TestHookedLoopZeroAllocs(t *testing.T) {
	measure := func(trips uint64) uint64 {
		var hooks uint64
		pl := pluginFunc{name: "alloc-trace", f: func(blk *Block) {
			for i := range blk.Insts {
				blk.AddHook(i, PrioTrace, func(ctx *Ctx) error {
					hooks++
					return nil
				})
			}
		}}
		im := buildHotImage(t)
		v, err := New(Config{Image: im, Input: tripInput(trips), MaxSteps: 1 << 62, Plugins: []Plugin{pl}})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := v.Run()
		runtime.ReadMemStats(&after)
		if res.Outcome != OutcomeExit || res.ExitCode != 0 {
			t.Fatalf("res = %+v", res)
		}
		if hooks == 0 {
			t.Fatal("hooks never ran")
		}
		return after.Mallocs - before.Mallocs
	}
	small := measure(1_000)
	big := measure(101_000)
	if big > small+16 {
		t.Fatalf("100k extra hooked iterations allocated %d extra objects; hooked path is not allocation-free", big-small)
	}
}

// TestRunResetsEntryEdge: every Run must record its first edge with
// From == 0 (the synthetic entry source). A reused VM whose previous run
// ended in some block B must not record the next run's entry as B→entry —
// that would make coverage fingerprints depend on run order within one
// machine, which the fuzzer's corpus dedup cannot tolerate.
func TestRunResetsEntryEdge(t *testing.T) {
	cov := NewCoverage()
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.AddRI(isa.EAX, 1)
		a.Jmp("tail")
		a.Label("tail")
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
	})
	v, err := New(Config{Image: im, Coverage: cov})
	if err != nil {
		t.Fatal(err)
	}
	if res := v.Run(); res.Outcome != OutcomeExit {
		t.Fatalf("first run: %+v", res)
	}
	// Rewind the PC and run again on the same machine.
	v.CPU.PC = labels["main"]
	if res := v.Run(); res.Outcome != OutcomeExit {
		t.Fatalf("second run: %+v", res)
	}
	if got := cov.Hits(Edge{From: 0, To: labels["main"]}); got != 2 {
		t.Fatalf("entry edge hits = %d, want 2 (Run did not reset lastBlock)", got)
	}
	if got := cov.Hits(Edge{From: labels["tail"], To: labels["main"]}); got != 0 {
		t.Fatalf("phantom tail→main edge recorded %d times; entry edge leaked the previous run's last block", got)
	}
}

// TestHookOrderUnderHeavyInstrumentation drives AddHook's positional insert
// through an adversarial mix of priorities (descending, interleaved,
// duplicated) and verifies execution order equals (priority, insertion
// sequence) order — the contract the sort-based implementation provided.
func TestHookOrderUnderHeavyInstrumentation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prios := []int{PrioRepair, PrioCheck, PrioMonitor, PrioTrace}
	for trial := 0; trial < 50; trial++ {
		im, _ := buildImage(t, func(a *asm.Assembler) {
			a.Label("main")
			a.AddRI(isa.EAX, 1)
			a.MovRI(isa.EAX, 0)
			a.Sys(isa.SysExit)
		})
		var got []int
		type tagged struct {
			prio, id int
		}
		var inserted []tagged
		n := 5 + rng.Intn(40)
		plugin := pluginFunc{name: "order", f: func(blk *Block) {
			for id := 0; id < n; id++ {
				id := id
				p := prios[rng.Intn(len(prios))]
				inserted = append(inserted, tagged{prio: p, id: id})
				blk.AddHook(0, p, func(*Ctx) error {
					got = append(got, id)
					return nil
				})
			}
		}}
		v, err := New(Config{Image: im, Plugins: []Plugin{plugin}})
		if err != nil {
			t.Fatal(err)
		}
		if res := v.Run(); res.Outcome != OutcomeExit {
			t.Fatalf("res = %+v", res)
		}
		// Reference order: stable sort by priority == insertion order within
		// equal priorities (insertion ids are already ascending).
		var want []int
		for _, p := range prios {
			for _, in := range inserted {
				if in.prio == p {
					want = append(want, in.id)
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d hooks ran, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: hook order %v, want %v", trial, got, want)
			}
		}
	}
}

// selfLoopProgram builds a one-block loop whose back edge targets its own
// head, so after the first pass the block re-enters itself.
func selfLoopProgram(t *testing.T) (*image.Image, map[string]uint32) {
	return buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EBX, 10)
		a.Label("loop")
		a.AddRI(isa.EAX, 1)
		a.Label("dec")
		a.SubRI(isa.EBX, 1)
		a.CmpRI(isa.EBX, 0)
		a.Jne("loop")
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
	})
}

// TestTracePatchSideExit: a hook applies a patch to a later instruction of
// the block that is executing. Run finishes the current pass through the
// block as decoded, and every later entry must see the patch, even though
// the only way back into the block is the block's own back edge.
func TestTracePatchSideExit(t *testing.T) {
	im, labels := selfLoopProgram(t)
	v, err := New(Config{Image: im})
	if err != nil {
		t.Fatal(err)
	}
	decHits := 0
	applied := false
	if err := v.ApplyPatch(&Patch{
		ID: "arm", Addr: labels["loop"], Prio: PrioTrace,
		Hook: func(ctx *Ctx) error {
			if ctx.Reg(isa.EAX) == 4 && !applied {
				applied = true
				return ctx.VM.ApplyPatch(&Patch{
					ID: "probe", Addr: labels["dec"], Prio: PrioTrace,
					Hook: func(*Ctx) error { decHits++; return nil },
				})
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	res := v.Run()
	if res.Outcome != OutcomeExit || res.ExitCode != 0 {
		t.Fatalf("res = %+v", res)
	}
	// The patch lands on pass 5 (EAX is read before the increment), after
	// that pass's block was decoded: passes 6..10 see it — 5 hits. A slot
	// left marked entered would keep running the unpatched block.
	if decHits != 5 {
		t.Fatalf("probe ran %d times, want 5 (patch missed, or applied mid-pass)", decHits)
	}
}

// TestTracePatchRemovalSideExit is the removal direction: a patch removed
// by a hook earlier in its own block still runs for the rest of that pass
// and never again.
func TestTracePatchRemovalSideExit(t *testing.T) {
	im, labels := selfLoopProgram(t)
	v, err := New(Config{Image: im})
	if err != nil {
		t.Fatal(err)
	}
	decHits := 0
	if err := v.ApplyPatch(&Patch{
		ID: "probe", Addr: labels["dec"], Prio: PrioTrace,
		Hook: func(*Ctx) error { decHits++; return nil },
	}); err != nil {
		t.Fatal(err)
	}
	removed := false
	if err := v.ApplyPatch(&Patch{
		ID: "disarm", Addr: labels["loop"], Prio: PrioTrace,
		Hook: func(ctx *Ctx) error {
			if ctx.Reg(isa.EAX) == 4 && !removed {
				removed = true
				ctx.VM.RemovePatch("probe")
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	res := v.Run()
	if res.Outcome != OutcomeExit || res.ExitCode != 0 {
		t.Fatalf("res = %+v", res)
	}
	if decHits != 5 {
		t.Fatalf("probe ran %d times, want 5 (passes 1..5)", decHits)
	}
}
