// Quickstart: protect a small program with ClearView end to end.
//
// The program reads one byte per "request" and stores into a heap table at
// an attacker-controllable offset — a classic unchecked-index defect.
// The example walks the five ClearView components of Figure 1 explicitly:
//
//  1. Learning        observe normal requests, infer invariants
//  2. Monitoring      Heap Guard detects the out-of-bounds write
//  3. Correlation     checking patches classify the violated invariant
//  4. Repair          candidate patches enforce the invariant
//  5. Evaluation      the surviving patch is adopted
//
// Run:  go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/replay"
	"repro/internal/vm"
)

// buildVulnerable assembles the protected program: per input byte b it
// computes idx = b - '0' and stores a marker at table[idx] without a
// bounds check.
func buildVulnerable() (*image.Image, map[string]uint32) {
	a := asm.New(0x1000)
	a.Label("main")
	a.MovRI(isa.EAX, 16) // table of 4 cells
	a.Sys(isa.SysAlloc)
	a.MovRR(isa.EDI, isa.EAX)
	a.MovRI(isa.EAX, 8) // request buffer
	a.Sys(isa.SysAlloc)
	a.MovRR(isa.ESI, isa.EAX)

	a.Label("loop")
	a.Sys(isa.SysInAvail)
	a.CmpRI(isa.EAX, 0)
	a.Je("done")
	a.MovRR(isa.EAX, isa.ESI)
	a.MovRI(isa.ECX, 1)
	a.Sys(isa.SysRead)
	a.LoadB(isa.EDX, asm.M(isa.ESI, 0))
	a.SubRI(isa.EDX, '0') // idx = byte - '0'; negative for bytes < '0'!
	a.MovRI(isa.EBX, 0x2A)
	a.Label("store")
	a.Store(asm.MX(isa.EDI, isa.EDX, 2, 0), isa.EBX) // table[idx] = 42
	a.Lea(isa.EAX, asm.MX(isa.EDI, isa.EDX, 2, 0))
	a.MovRI(isa.ECX, 1)
	a.Sys(isa.SysWrite) // display the written cell
	a.Jmp("loop")

	a.Label("done")
	a.MovRI(isa.EAX, 0)
	a.Sys(isa.SysExit)
	code, labels := a.MustAssemble()
	return &image.Image{Base: 0x1000, Entry: labels["main"], Code: code}, labels
}

func main() {
	img, labels := buildVulnerable()

	// 1. Learning: observe normal requests ('0'..'3').
	db, stats, err := core.Learn(img, core.LearnConfig{
		Inputs: [][]byte{[]byte("0123"), []byte("31"), []byte("22")},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[learning]    %d trace entries -> %d invariants\n", stats.Observations, db.Len())

	cv, err := core.New(core.Config{
		Image: img, Invariants: db,
		Monitors: replay.Monitors{MemoryFirewall: true, HeapGuard: true, ShadowStack: true},
	})
	if err != nil {
		log.Fatal(err)
	}

	// The attack: '/' is 0x2F, so idx = '/'-'0' = -1 — an out-of-bounds
	// write one cell below the table, straight onto its heap canary.
	attack := []byte("/0")

	// 2. Monitoring: presentation 1 is detected and blocked.
	res := cv.Execute(attack)
	fmt.Printf("[monitoring]  presentation 1: %v by %s at %#x\n",
		res.Outcome, res.Failure.Monitor, res.Failure.PC)
	fc := cv.Case(labels["store"])
	fmt.Printf("[correlation] %d candidate invariants selected, checks deployed\n",
		fc.Metrics.CandidateCount)

	// 3. Correlation: presentations 2-3 classify the violations.
	cv.Execute(attack)
	cv.Execute(attack)
	fmt.Printf("[repair]      %d candidate repairs generated; deploying %q\n",
		fc.Metrics.RepairCount, fc.CurrentRepairID())

	// 4+5. Evaluation: presentation 4 survives and the patch is adopted.
	res = cv.Execute(attack)
	if res.Outcome != vm.OutcomeExit {
		log.Fatalf("repair did not survive: %+v", res)
	}
	fmt.Printf("[evaluation]  presentation 4: application survived the attack (state: %v)\n", fc.State)

	// The patched application still serves normal requests identically.
	legit := cv.Execute([]byte("0123"))
	fmt.Printf("[after]       legitimate requests render %d cells, exit %d\n",
		len(legit.Output), legit.ExitCode)
}
