package trace

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/daikon"
	"repro/internal/isa"
	"repro/internal/vm"
)

// bufferedRecorder is the front end as it was before the fold, kept as an
// oracle: it buffers a run's block passes and stack-pointer offsets and
// feeds them, pair by pair by key, through the engine's ObserveBlockPass
// and ObserveSP when the run is committed. Like the Recorder, it starts a
// pass at every block entry and its outermost frame at installation.
type bufferedRecorder struct {
	eng      *daikon.Engine
	passes   [][]daikon.Obs
	cur      []daikon.Obs
	sps      [][2]uint32 // pc, delta
	entrySPs []uint32
}

func (r *bufferedRecorder) Name() string { return "buffered-frontend" }

func (r *bufferedRecorder) Install(v *vm.VM) { r.entrySPs = []uint32{v.CPU.Regs[isa.ESP]} }

func (r *bufferedRecorder) EnterBlock() { r.closePass() }

func (r *bufferedRecorder) Instrument(b *vm.Block) {
	dups := dupSlots(b)
	for i := range b.Insts {
		in, pc := b.Insts[i], b.Addr(i)
		switch {
		case in.Op.IsCall():
			b.AddHook(i, vm.PrioTrace+1, func(ctx *vm.Ctx) error {
				r.entrySPs = append(r.entrySPs, ctx.Reg(isa.ESP)-4)
				return nil
			})
		case in.Op == isa.RET:
			b.AddHook(i, vm.PrioTrace+1, func(*vm.Ctx) error {
				if len(r.entrySPs) > 1 {
					r.entrySPs = r.entrySPs[:len(r.entrySPs)-1]
				}
				return nil
			})
		}
		observe := (&Recorder{}).observedSlots(dups, i, in)
		b.AddHook(i, vm.PrioTrace, func(ctx *vm.Ctx) error {
			for m := observe; m != 0; m &= m - 1 {
				si := bits.TrailingZeros8(m)
				if val, err := ctx.EvalSlot(si); err == nil {
					r.cur = append(r.cur, daikon.Obs{Var: daikon.VarID{PC: pc, Slot: uint8(si)}, Val: val})
				}
			}
			r.sps = append(r.sps, [2]uint32{pc, r.entrySPs[len(r.entrySPs)-1] - ctx.Reg(isa.ESP)})
			return nil
		})
	}
}

func (r *bufferedRecorder) closePass() {
	if len(r.cur) > 0 {
		r.passes = append(r.passes, r.cur)
		r.cur = nil
	}
}

func (r *bufferedRecorder) end(commit bool) {
	r.closePass()
	if commit {
		for _, p := range r.passes {
			r.eng.ObserveBlockPass(p)
		}
		for _, s := range r.sps {
			r.eng.ObserveSP(s[0], s[1])
		}
	}
	r.passes, r.cur, r.sps, r.entrySPs = nil, nil, nil, nil
}

// dbContent renders a database's invariants and variable counts in a
// stable order.
func dbContent(db *daikon.DB) string {
	var lines []string
	for _, inv := range db.All() {
		lines = append(lines, fmt.Sprintf("%s %v %d %s %d", inv.ID(), inv.Values, inv.Bound, inv.Var2, inv.Samples))
	}
	for v, n := range db.VarsSeen {
		lines = append(lines, fmt.Sprintf("seen %s %d", v, n))
	}
	sort.Strings(lines[db.Len():])
	return strings.Join(lines, "\n")
}

// TestFoldMatchesPassBuffer runs the folding recorder beside the buffering
// oracle on the same machines and requires the same database, with and
// without a repair patch that suppresses a self-loop's first instruction.
// The fold pairs positions through its block plans, the oracle by key. A
// run that crashes after its loop, between the normal ones, is discarded
// by both.
func TestFoldMatchesPassBuffer(t *testing.T) {
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EAX, 16)
		a.Sys(isa.SysAlloc)
		a.MovRR(isa.ESI, isa.EAX)
		a.MovRI(isa.ECX, 1)
		a.Sys(isa.SysRead)
		a.LoadB(isa.ECX, asm.M(isa.ESI, 0)) // iterations
		a.MovRR(isa.EBP, isa.ECX)
		a.MovRI(isa.EDX, 10)
		a.Label("loop")
		a.AddRI(isa.EDX, 3)
		a.MovRR(isa.EBX, isa.EDX)
		a.AddRR(isa.EBX, isa.ECX)
		a.SubRI(isa.ECX, 1)
		a.CmpRI(isa.ECX, 0)
		a.Jg("loop")
		a.Call("f")
		a.CmpRI(isa.EBP, 9)
		a.Je("crash")
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
		a.Label("crash")
		a.Halt()
		a.Label("f")
		a.PushI(7)
		a.MovRR(isa.EDI, isa.EBX)
		a.Pop(isa.EDI)
		a.Ret()
	})
	skip := &vm.Patch{ID: "skip-loop-head", Addr: labels["loop"], Prio: vm.PrioRepair,
		Hook: func(ctx *vm.Ctx) error { ctx.Skip(); return nil }}

	for _, patched := range []bool{false, true} {
		fold, oracle := daikon.NewEngine(), daikon.NewEngine()
		rec := NewRecorder(fold)
		buf := &bufferedRecorder{eng: oracle}
		var crashed int
		for _, in := range [][]byte{{3}, {5}, {9}, {1}, {4}} {
			conf := vm.Config{Image: im, Plugins: []vm.Plugin{rec, buf}, Input: in}
			if patched {
				conf.Patches = []*vm.Patch{skip}
			}
			machine, err := vm.New(conf)
			if err != nil {
				t.Fatal(err)
			}
			res := machine.Run()
			normal := res.Outcome == vm.OutcomeExit && res.ExitCode == 0
			if normal {
				rec.CommitRun()
			} else {
				rec.DiscardRun()
				crashed++
			}
			buf.end(normal)
		}
		if crashed == 0 {
			t.Fatalf("patched=%v: no run was discarded", patched)
		}
		got, want := dbContent(fold.Finalize(daikon.Options{})), dbContent(oracle.Finalize(daikon.Options{}))
		if got != want {
			t.Errorf("patched=%v: folded database differs from the buffered oracle\n--- fold ---\n%s\n--- oracle ---\n%s", patched, got, want)
		}
		if fold.VarsObserved() != oracle.VarsObserved() {
			t.Errorf("patched=%v: VarsObserved %d, oracle %d", patched, fold.VarsObserved(), oracle.VarsObserved())
		}
	}
}

// TestPassPerBlockExecutionUnderSkipPatch: a repair that suppresses a
// self-loop's first instruction must not merge the loop's iterations into
// one pass. Every pair statistic comes from one execution of a block, so
// no pair is observed more often than either of its variables, and a pair
// of loop variables that are both observed in every iteration is observed
// exactly once per iteration.
func TestPassPerBlockExecutionUnderSkipPatch(t *testing.T) {
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EAX, 16)
		a.Sys(isa.SysAlloc)
		a.MovRR(isa.ESI, isa.EAX)
		a.MovRI(isa.ECX, 1)
		a.Sys(isa.SysRead)
		a.LoadB(isa.ECX, asm.M(isa.ESI, 0)) // iterations
		a.MovRR(isa.EBP, isa.ECX)
		a.MovRI(isa.EDX, 10)
		a.Label("loop")
		a.AddRI(isa.EDX, 3)
		a.MovRR(isa.EBX, isa.EDX)
		a.AddRR(isa.EBX, isa.ECX)
		a.SubRI(isa.ECX, 1)
		a.CmpRI(isa.ECX, 0)
		a.Jg("loop")
		a.Label("done")
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
	})
	skip := &vm.Patch{ID: "skip-loop-head", Addr: labels["loop"], Prio: vm.PrioRepair,
		Hook: func(ctx *vm.Ctx) error { ctx.Skip(); return nil }}
	rec := NewRecorder(daikon.NewEngine())
	var iterations uint64
	for _, n := range []byte{3, 5, 9, 4} {
		machine, err := vm.New(vm.Config{Image: im, Plugins: []vm.Plugin{rec}, Input: []byte{n}, Patches: []*vm.Patch{skip}})
		if err != nil {
			t.Fatal(err)
		}
		if res := machine.Run(); res.Outcome != vm.OutcomeExit {
			t.Fatalf("input %d: %+v", n, res)
		}
		rec.CommitRun()
		iterations += uint64(n)
	}
	db := rec.Engine.Finalize(daikon.Options{})
	inLoop := func(v daikon.VarID) bool { return v.PC > labels["loop"] && v.PC < labels["done"] }
	everyIteration := 0
	for _, inv := range db.All() {
		if inv.Kind != daikon.KindLessThan {
			continue
		}
		a, b := db.VarsSeen[inv.Var], db.VarsSeen[inv.Var2]
		if inv.Samples > min(a, b) {
			t.Errorf("%s: %d samples, more than its variables' %d: one pass spans block executions", inv.ID(), inv.Samples, min(a, b))
		}
		if inLoop(inv.Var) && inLoop(inv.Var2) && a == iterations && b == iterations {
			everyIteration++
			if inv.Samples != iterations {
				t.Errorf("%s: %d samples over %d iterations", inv.ID(), inv.Samples, iterations)
			}
		}
	}
	if everyIteration == 0 {
		t.Fatal("no pair invariant over two loop variables observed in every iteration")
	}
}
