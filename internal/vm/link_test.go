package vm

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
)

// loopProgram builds a two-block loop: "loop" body block and a counter
// decrement block, so the loop→body edge is dispatched through a
// successor link after the first iteration.
func loopProgram(t testing.TB, iters int32) (*VM, map[string]uint32) {
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EBX, iters)
		a.Label("loop")
		a.AddRI(isa.EAX, 1)
		a.Jmp("dec") // separate block so loop→dec→loop uses links
		a.Label("dec")
		a.SubRI(isa.EBX, 1)
		a.CmpRI(isa.EBX, 0)
		a.Jne("loop")
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
	})
	v, err := New(Config{Image: im})
	if err != nil {
		t.Fatal(err)
	}
	return v, labels
}

// TestApplyPatchInvalidatesLinks: a patch applied mid-run (from a hook in
// another block) must take effect on the very next execution of the
// patched block, even though the dispatcher reached that block through a
// cached successor link on every prior iteration.
func TestApplyPatchInvalidatesLinks(t *testing.T) {
	v, labels := loopProgram(t, 10)
	decHits := 0
	var applied bool
	if err := v.ApplyPatch(&Patch{
		ID:   "arm",
		Addr: labels["loop"],
		Prio: PrioTrace,
		Hook: func(ctx *Ctx) error {
			if ctx.Reg(isa.EAX) == 4 && !applied {
				applied = true
				return ctx.VM.ApplyPatch(&Patch{
					ID:   "probe",
					Addr: labels["dec"],
					Prio: PrioTrace,
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
	// The loop hook observes EAX before the increment, so EAX==4 on
	// iteration 5; the dec block has already run 4 times unpatched and
	// been linked. Iterations 5..10 must see the probe: 6 hits. A stale
	// link would keep running the old uninstrumented block.
	if decHits != 6 {
		t.Fatalf("probe hook ran %d times, want 6 (stale successor link?)", decHits)
	}
}

// TestRemovePatchInvalidatesLinks: removing a patch mid-run must stop its
// hook from firing even though the patched block is reached via links.
func TestRemovePatchInvalidatesLinks(t *testing.T) {
	v, labels := loopProgram(t, 10)
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
	// The probe fires on iterations 1..4; the removal happens on
	// iteration 5's loop hook (EAX==4 pre-increment), before that
	// iteration's dec block: 4 hits.
	if decHits != 4 {
		t.Fatalf("probe hook ran %d times, want 4 (stale successor link kept old block?)", decHits)
	}
}

// TestLinkRefreshAfterGenBump: after a cache-generation bump, re-dispatching
// a successor whose pc already occupies a link slot (with a stale gen) must
// refresh that slot in place. Claiming the round-robin slot instead would
// duplicate one successor across both slots and evict the other live target,
// thrashing the link cache on every two-successor block after each patch.
func TestLinkRefreshAfterGenBump(t *testing.T) {
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.CmpRI(isa.EAX, 0)
		a.Je("even")
		a.Label("odd")
		a.AddRI(isa.ESI, 1)
		a.Jmp("join")
		a.Label("even")
		a.AddRI(isa.EDI, 1)
		a.Jmp("join")
		a.Label("join")
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
	})
	v, err := New(Config{Image: im})
	if err != nil {
		t.Fatal(err)
	}
	head, err := v.fetchBlock(labels["main"])
	if err != nil {
		t.Fatal(err)
	}
	// Warm both slots: head→odd and head→even.
	if _, err := v.dispatch(head, labels["odd"]); err != nil {
		t.Fatal(err)
	}
	if _, err := v.dispatch(head, labels["even"]); err != nil {
		t.Fatal(err)
	}
	slots := func() map[uint32]bool {
		m := map[uint32]bool{}
		for _, l := range head.links {
			if l.b != nil {
				m[l.pc] = true
			}
		}
		return m
	}
	if s := slots(); !s[labels["odd"]] || !s[labels["even"]] {
		t.Fatalf("warmup did not fill both slots: %v", s)
	}
	// A patch on an unrelated cached block bumps the generation, orphaning
	// both links without changing their pcs.
	if err := v.ApplyPatch(&Patch{ID: "bump", Addr: labels["join"], Prio: PrioTrace,
		Hook: func(*Ctx) error { return nil }}); err != nil {
		t.Fatal(err)
	}
	// Re-dispatch each successor several times, alternating. With in-place
	// refresh the two slots settle immediately; with blind round-robin
	// claiming, each dispatch evicts the other successor and at least one
	// later dispatch misses the link cache again.
	for pass := 0; pass < 3; pass++ {
		if _, err := v.dispatch(head, labels["odd"]); err != nil {
			t.Fatal(err)
		}
		if _, err := v.dispatch(head, labels["even"]); err != nil {
			t.Fatal(err)
		}
		s := slots()
		if !s[labels["odd"]] || !s[labels["even"]] {
			t.Fatalf("pass %d: link slots thrashed after gen bump: %v", pass, s)
		}
	}
	for i, l := range head.links {
		if l.b != nil && l.gen != v.cacheGen {
			t.Fatalf("slot %d still stale after re-dispatch: gen %d, want %d", i, l.gen, v.cacheGen)
		}
	}
}

// TestCoverageCountsLinkedDispatch: edge coverage is recorded at the
// dispatch point, so hit counts must reflect every block entry — linked
// fast dispatches included — or fuzz fingerprints would change with the
// optimization.
func TestCoverageCountsLinkedDispatch(t *testing.T) {
	const iters = 25
	cov := NewCoverage()
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EBX, iters)
		a.Label("loop")
		a.AddRI(isa.EAX, 1)
		a.Jmp("dec")
		a.Label("dec")
		a.SubRI(isa.EBX, 1)
		a.CmpRI(isa.EBX, 0)
		a.Jne("loop")
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
	})
	v, err := New(Config{Image: im, Coverage: cov})
	if err != nil {
		t.Fatal(err)
	}
	if res := v.Run(); res.Outcome != OutcomeExit {
		t.Fatalf("res = %+v", res)
	}
	// Iteration 1 enters dec from the entry block (whose start is main,
	// not loop — labels do not end blocks); iterations 2..25 re-enter it
	// from the block starting at loop, through the successor link.
	if got := cov.Hits(Edge{From: labels["main"], To: labels["dec"]}); got != 1 {
		t.Fatalf("main→dec edge hits = %d, want 1", got)
	}
	if got := cov.Hits(Edge{From: labels["loop"], To: labels["dec"]}); got != iters-1 {
		t.Fatalf("loop→dec edge hits = %d, want %d (linked dispatch skipped coverage?)", got, iters-1)
	}
	if got := cov.Hits(Edge{From: labels["dec"], To: labels["loop"]}); got != iters-1 {
		t.Fatalf("dec→loop edge hits = %d, want %d", got, iters-1)
	}
}

// TestCoverageHashStableAcrossRuns: the fingerprint the fuzzer depends on
// must be bit-for-bit reproducible under the linked dispatcher.
func TestCoverageHashStableAcrossRuns(t *testing.T) {
	run := func() uint64 {
		cov := NewCoverage()
		v, _ := loopProgramWithCoverage(t, 50, cov)
		if res := v.Run(); res.Outcome != OutcomeExit {
			t.Fatalf("res = %+v", res)
		}
		return cov.Hash()
	}
	h1, h2 := run(), run()
	if h1 != h2 {
		t.Fatalf("coverage hash not reproducible: %#x vs %#x", h1, h2)
	}
}

func loopProgramWithCoverage(t testing.TB, iters int32, cov *Coverage) (*VM, map[string]uint32) {
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EBX, iters)
		a.Label("loop")
		a.AddRI(isa.EAX, 1)
		a.SubRI(isa.EBX, 1)
		a.CmpRI(isa.EBX, 0)
		a.Jne("loop")
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
	})
	v, err := New(Config{Image: im, Coverage: cov})
	if err != nil {
		t.Fatal(err)
	}
	return v, labels
}

// TestHotLoopZeroAllocs proves an unhooked run allocates nothing per
// instruction: two identical machines differing only in trip count
// (1k vs 101k loop iterations) must allocate the same, modulo a small
// constant slack for runtime noise.
func TestHotLoopZeroAllocs(t *testing.T) {
	measure := func(trips uint64) uint64 {
		im := buildHotImage(t)
		v, err := New(Config{Image: im, Input: tripInput(trips), MaxSteps: 1 << 62})
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
		return after.Mallocs - before.Mallocs
	}
	small := measure(1_000)
	big := measure(101_000)
	if big > small+16 {
		t.Fatalf("100k extra loop iterations allocated %d extra objects; hot path is not allocation-free", big-small)
	}
}

// TestCopyBMatchesByteOracle drives copyBlock over randomized cases —
// overlapping copies in both directions, page-boundary straddles,
// COW-shared pages, unmapped holes, and step-limit interruptions — and
// compares the complete machine-visible outcome (memory, registers, step
// counter, error) against a byte-at-a-time reference.
func TestCopyBMatchesByteOracle(t *testing.T) {
	const base, span = 0x10000, 6 * mem.PageSize
	rng := rand.New(rand.NewSource(7))

	type outcome struct {
		errStr        string
		esi, edi, ecx uint32
		steps         uint64
		mem           []byte
	}

	runCase := func(bytewise bool, seedMem *mem.Memory, src, dst, cnt uint32, maxSteps uint64) outcome {
		v := &VM{Mem: seedMem.Clone(), maxSteps: maxSteps}
		v.CPU.Regs[isa.ESI] = src
		v.CPU.Regs[isa.EDI] = dst
		v.CPU.Regs[isa.ECX] = cnt
		var err error
		if bytewise {
			err = v.copyBlockByteOracle()
		} else {
			err = v.copyBlock()
		}
		o := outcome{
			esi: v.CPU.Regs[isa.ESI], edi: v.CPU.Regs[isa.EDI], ecx: v.CPU.Regs[isa.ECX],
			steps: v.steps,
		}
		if err != nil {
			o.errStr = err.Error()
		}
		o.mem, _ = v.Mem.ReadBytes(base, span)
		return o
	}

	for trial := 0; trial < 300; trial++ {
		seed := mem.New()
		seed.Map(base, 2*mem.PageSize)
		seed.Map(base+3*mem.PageSize, 3*mem.PageSize) // hole at pages 2
		buf := make([]byte, span)
		rng.Read(buf)
		_ = seed.WriteBytes(base, buf[:2*mem.PageSize])
		_ = seed.WriteBytes(base+3*mem.PageSize, buf[3*mem.PageSize:])
		if trial%3 == 0 {
			// Exercise COW interactions: share every page with a clone.
			_ = seed.Clone()
		}

		src := base + uint32(rng.Intn(span))
		var dst uint32
		switch rng.Intn(4) {
		case 0:
			dst = src + uint32(rng.Intn(32)) // tight upward overlap → replication
		case 1:
			dst = src - uint32(rng.Intn(32)) // downward overlap
		default:
			dst = base + uint32(rng.Intn(span))
		}
		cnt := uint32(rng.Intn(3 * mem.PageSize))
		maxSteps := uint64(1 << 40)
		if rng.Intn(3) == 0 {
			maxSteps = uint64(rng.Intn(int(cnt) + 2)) // interrupt mid-copy
		}

		got := runCase(false, seed, src, dst, cnt, maxSteps)
		want := runCase(true, seed, src, dst, cnt, maxSteps)
		if got.errStr != want.errStr || got.esi != want.esi || got.edi != want.edi ||
			got.ecx != want.ecx || got.steps != want.steps {
			t.Fatalf("trial %d (src=%#x dst=%#x cnt=%d max=%d):\n got %+v\nwant %+v",
				trial, src, dst, cnt, maxSteps,
				fmt.Sprintf("err=%q esi=%#x edi=%#x ecx=%d steps=%d", got.errStr, got.esi, got.edi, got.ecx, got.steps),
				fmt.Sprintf("err=%q esi=%#x edi=%#x ecx=%d steps=%d", want.errStr, want.esi, want.edi, want.ecx, want.steps))
		}
		for i := range got.mem {
			if got.mem[i] != want.mem[i] {
				t.Fatalf("trial %d: memory diverged at %#x: got %#x want %#x",
					trial, base+uint32(i), got.mem[i], want.mem[i])
			}
		}
	}
}

// copyBlockByteOracle is the original byte-at-a-time COPYB loop, kept as
// the semantic reference for the page-run implementation.
func (v *VM) copyBlockByteOracle() error {
	regs := &v.CPU.Regs
	for regs[isa.ECX] != 0 {
		if v.steps >= v.maxSteps {
			return fmt.Errorf("step limit exceeded during block copy")
		}
		v.steps++
		b, err := v.Mem.Read8(regs[isa.ESI])
		if err != nil {
			return err
		}
		if err := v.Mem.Write8(regs[isa.EDI], b); err != nil {
			return err
		}
		regs[isa.ESI]++
		regs[isa.EDI]++
		regs[isa.ECX]--
	}
	return nil
}

// TestCopyBReplicationPattern pins the rep-movsb pattern-fill behavior:
// copying with dst = src+1 replicates the first byte.
func TestCopyBReplicationPattern(t *testing.T) {
	m := mem.New()
	m.Map(0x1000, mem.PageSize)
	if err := m.WriteBytes(0x1000, []byte("Xabcdefghij")); err != nil {
		t.Fatal(err)
	}
	v := &VM{Mem: m, maxSteps: 1 << 30}
	v.CPU.Regs[isa.ESI] = 0x1000
	v.CPU.Regs[isa.EDI] = 0x1001
	v.CPU.Regs[isa.ECX] = 10
	if err := v.copyBlock(); err != nil {
		t.Fatal(err)
	}
	got, _ := m.ReadBytes(0x1000, 11)
	if string(got) != "XXXXXXXXXXX" {
		t.Fatalf("overlap copy = %q, want pattern fill", got)
	}
	if v.steps != 10 {
		t.Fatalf("steps = %d, want 10", v.steps)
	}
}
