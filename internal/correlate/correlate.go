// Package correlate implements correlated invariant identification (§2.4):
// given a failure location (and, when the Shadow Stack is enabled, the call
// stack), it selects candidate invariants from the learned database, builds
// patches that check them, and classifies each invariant's correlation with
// the failure from the observation sequences those patches produce.
package correlate

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/daikon"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Candidate is one invariant selected for checking against a failure.
type Candidate struct {
	Inv   *daikon.Invariant
	Proc  *cfg.Proc
	Frame uint32 // the frame instruction: failure PC (depth 0) or call site
	Depth int    // 0 = procedure containing the failure; 1 = its caller; ...
}

// Config controls candidate selection.
type Config struct {
	// StackScope is how many procedures on the call stack *that have
	// candidate invariants* to include, walking outward from the failure
	// procedure. The Red Team exercise ran with 1 ("only the lowest
	// procedure on the stack with invariants" — §4.3.2); widening it to 2
	// is the reconfiguration that fixed exploit 285595.
	StackScope int
	// DisableSameBlockRestriction lifts the §2.4.1 optimization that
	// admits two-variable invariants only from the frame instruction's
	// basic block (ablation knob: the restriction "substantially reduces
	// both the invariant checking overhead and the number of candidate
	// repairs").
	DisableSameBlockRestriction bool
}

// DefaultStackScope is the paper's Red Team configuration.
const DefaultStackScope = 1

// SelectCandidates returns the candidate correlated invariants for a
// failure at failPC with the given shadow-stack snapshot (return sites,
// innermost first; may be nil when the Shadow Stack is disabled).
//
// Per §2.4.1: at each frame, any invariant at a predominator of the frame
// instruction in the frame's procedure is a candidate, except that an
// invariant relating two variables must be checked inside the frame
// instruction's own basic block (the optimization that bounds checking
// overhead and repair count).
func SelectCandidates(db *daikon.DB, cfgdb *cfg.DB, failPC uint32, stack []uint32, conf Config) []Candidate {
	scope := conf.StackScope
	if scope <= 0 {
		scope = DefaultStackScope
	}
	frames := []uint32{failPC}
	for _, ret := range stack {
		frames = append(frames, ret-isa.InstSize) // the call site
	}

	var out []Candidate
	procsWithCandidates := 0
	for depth, frame := range frames {
		if procsWithCandidates >= scope {
			break
		}
		proc := cfgdb.ProcAt(frame)
		if proc == nil {
			continue
		}
		frameBlock := proc.BlockOf(frame)
		var frameCands []Candidate
		seen := map[string]bool{}
		for _, pred := range proc.Predominators(frame) {
			for _, inv := range db.At(pred) {
				if seen[inv.ID()] {
					continue
				}
				if inv.NumVars() == 2 && !conf.DisableSameBlockRestriction {
					// Two-variable invariants only from the frame
					// instruction's basic block.
					if frameBlock == nil || !frameBlock.Contains(inv.PC()) || inv.PC() > frame {
						continue
					}
				}
				seen[inv.ID()] = true
				frameCands = append(frameCands, Candidate{
					Inv: inv, Proc: proc, Frame: frame, Depth: depth,
				})
			}
		}
		if len(frameCands) > 0 {
			procsWithCandidates++
			out = append(out, frameCands...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Depth != out[j].Depth {
			return out[i].Depth < out[j].Depth
		}
		return out[i].Inv.ID() < out[j].Inv.ID()
	})
	return out
}

// Observation is one invariant-check result (§2.4.2): which invariant, for
// which failure campaign, and whether it was satisfied.
type Observation struct {
	InvID     string
	FailureID string
	Satisfied bool
}

// CheckSet is a deployed set of invariant-checking patches for one failure.
// The observations stream is split into runs by the driver: StartRun begins
// a fresh observation sequence, EndRun finalizes it with whether the
// monitored failure recurred in that run.
//
// A check costs O(1) and allocates nothing: each hook records into its
// invariant's per-run fold, and a run's observations are materialized only
// when it ends (EndRun, DrainRun), in the canonical folded form — see
// fold.
type CheckSet struct {
	FailureID string
	Cands     []Candidate
	Patches   []*vm.Patch

	// invs holds one entry per distinct invariant ID among the candidates,
	// in first-candidate order; the hooks address it by index.
	invs []invState
	runs []RunLog

	// Totals for the Table 3 "(violated/total checks)" accounting.
	TotalChecks     uint64
	TotalViolations uint64
}

// invState is one checked invariant's state: its ID, resolved once at build
// time, the current run's fold, and — for a two-variable invariant checked
// across two instructions — the first operand staged for the check.
type invState struct {
	id     string
	fold   fold
	staged uint32
	// stagedOK reports that the staging patch read its operand this run.
	stagedOK bool
}

// fold is one invariant's checks in one run, reduced to exactly what
// Classify reads (§2.4.3): whether it was checked, whether its last check
// held, and whether any earlier check was violated. Its observations are
// the canonical sequence [violated, last] when an earlier check failed and
// [last] otherwise, which Classify cannot tell apart from the full
// per-check sequence.
type fold struct {
	checked        bool
	last           bool // the last check was satisfied
	violatedBefore bool // a check before the last was violated
}

func (f *fold) add(satisfied bool) {
	if f.checked && !f.last {
		f.violatedBefore = true
	}
	f.checked, f.last = true, satisfied
}

// RunLog is the per-run observation record used for classification.
type RunLog struct {
	Detected bool // the campaign's failure was detected in this run
	Obs      []Observation
}

// BuildCheckSet compiles checking patches for the candidates (§2.4.2).
// Patch IDs are prefixed with the failure ID so that concurrent campaigns
// for different failures never collide. Candidates sharing an invariant ID
// share one fold, so their checks interleave exactly as the per-check
// stream would under that ID.
func BuildCheckSet(failureID string, cands []Candidate) *CheckSet {
	cs := &CheckSet{FailureID: failureID, Cands: cands}
	index := make(map[string]int, len(cands))
	for _, c := range cands {
		inv := c.Inv
		id := inv.ID()
		i, ok := index[id]
		if !ok {
			i = len(cs.invs)
			index[id] = i
			cs.invs = append(cs.invs, invState{id: id})
		}
		switch inv.NumVars() {
		case 1:
			cs.Patches = append(cs.Patches, cs.oneVarPatch(inv, i))
		case 2:
			cs.Patches = append(cs.Patches, cs.twoVarPatches(inv, i)...)
		}
	}
	return cs
}

// record folds one check of invariant i into the current run.
func (cs *CheckSet) record(i int, satisfied bool) {
	cs.TotalChecks++
	if !satisfied {
		cs.TotalViolations++
	}
	cs.invs[i].fold.add(satisfied)
}

func (cs *CheckSet) oneVarPatch(inv *daikon.Invariant, i int) *vm.Patch {
	slot := int(inv.Var.Slot)
	return &vm.Patch{
		ID:   fmt.Sprintf("%s/check/%s", cs.FailureID, cs.invs[i].id),
		Addr: inv.Var.PC,
		Prio: vm.PrioCheck,
		Hook: func(ctx *vm.Ctx) error {
			val, err := ctx.EvalSlot(slot)
			if err != nil {
				return nil // the instruction is about to fault; no observation
			}
			cs.record(i, inv.Holds(val, 0))
			return nil
		},
	}
}

// twoVarPatches builds the auxiliary patch that stages the first variable's
// value and the checking patch at the second instruction (§2.4.2). When
// both variables belong to one instruction a single patch suffices.
func (cs *CheckSet) twoVarPatches(inv *daikon.Invariant, i int) []*vm.Patch {
	id := cs.invs[i].id
	checkPC := inv.PC()
	if inv.Var.PC == inv.Var2.PC {
		slot1, slot2 := int(inv.Var.Slot), int(inv.Var2.Slot)
		return []*vm.Patch{{
			ID:   fmt.Sprintf("%s/check/%s", cs.FailureID, id),
			Addr: checkPC,
			Prio: vm.PrioCheck,
			Hook: func(ctx *vm.Ctx) error {
				v1, err1 := ctx.EvalSlot(slot1)
				v2, err2 := ctx.EvalSlot(slot2)
				if err1 != nil || err2 != nil {
					return nil
				}
				cs.record(i, inv.Holds(v1, v2))
				return nil
			},
		}}
	}
	early, earlySlot := inv.Var, int(inv.Var.Slot)
	late, lateSlot := inv.Var2, int(inv.Var2.Slot)
	if late.PC < early.PC {
		early, late = late, early
		earlySlot, lateSlot = lateSlot, earlySlot
	}
	swapped := early != inv.Var
	stage := &vm.Patch{
		ID:   fmt.Sprintf("%s/stage/%s", cs.FailureID, id),
		Addr: early.PC,
		Prio: vm.PrioCheck,
		Hook: func(ctx *vm.Ctx) error {
			st := &cs.invs[i]
			val, err := ctx.EvalSlot(earlySlot)
			st.staged, st.stagedOK = val, err == nil
			return nil
		},
	}
	check := &vm.Patch{
		ID:   fmt.Sprintf("%s/check/%s", cs.FailureID, id),
		Addr: late.PC,
		Prio: vm.PrioCheck,
		Hook: func(ctx *vm.Ctx) error {
			st := &cs.invs[i]
			if !st.stagedOK {
				return nil
			}
			lateVal, err := ctx.EvalSlot(lateSlot)
			if err != nil {
				return nil
			}
			v1, v2 := st.staged, lateVal
			if swapped {
				v1, v2 = v2, v1
			}
			cs.record(i, inv.Holds(v1, v2))
			return nil
		},
	}
	return []*vm.Patch{stage, check}
}

// StartRun begins a fresh observation sequence for one execution.
func (cs *CheckSet) StartRun() {
	for i := range cs.invs {
		cs.invs[i] = invState{id: cs.invs[i].id}
	}
}

// DrainRun returns and clears the current run's observations without
// classifying them locally. Community nodes use this to stream the
// observations to the central manager, which performs the classification
// (§3.2: the patches "generate a stream of invariant check observations
// that are sent back to the centralized ClearView manager"). The stream is
// the canonical folded one — at most two observations per invariant, in
// candidate order — and nil when nothing was checked.
func (cs *CheckSet) DrainRun() []Observation {
	var obs []Observation
	for i := range cs.invs {
		st := &cs.invs[i]
		if st.fold.violatedBefore {
			obs = append(obs, Observation{InvID: st.id, FailureID: cs.FailureID})
		}
		if st.fold.checked {
			obs = append(obs, Observation{InvID: st.id, FailureID: cs.FailureID, Satisfied: st.fold.last})
		}
		st.fold = fold{}
	}
	return obs
}

// EndRun finalizes the current run's observations, recording whether the
// campaign's failure was detected during the run.
func (cs *CheckSet) EndRun(detected bool) {
	cs.runs = append(cs.runs, RunLog{Detected: detected, Obs: cs.DrainRun()})
}

// DetectedRuns returns how many recorded runs ended in the campaign's
// failure.
func (cs *CheckSet) DetectedRuns() int {
	n := 0
	for _, r := range cs.runs {
		if r.Detected {
			n++
		}
	}
	return n
}

// Runs returns the recorded run logs.
func (cs *CheckSet) Runs() []RunLog { return cs.runs }

// Correlation is the classification of §2.4.3.
type Correlation uint8

const (
	// NotCorrelated: always satisfied.
	NotCorrelated Correlation = iota
	// SlightlyCorrelated: violated at least once in at least one
	// failure-detecting run.
	SlightlyCorrelated
	// ModeratelyCorrelated: violated at the last check in every
	// failure-detecting run, with at least one additional violation in
	// some failure-detecting run.
	ModeratelyCorrelated
	// HighlyCorrelated: in every failure-detecting run, violated at the
	// last check and satisfied at every other check.
	HighlyCorrelated
)

func (c Correlation) String() string {
	switch c {
	case HighlyCorrelated:
		return "highly"
	case ModeratelyCorrelated:
		return "moderately"
	case SlightlyCorrelated:
		return "slightly"
	}
	return "not"
}

// Classify computes each invariant's correlation with the failure from the
// recorded run logs (§2.4.3). Only runs in which the failure was detected
// participate; an invariant that was never checked in some failing run
// cannot be highly or moderately correlated.
func Classify(runs []RunLog) map[string]Correlation {
	type perInv struct {
		// Per failing run: the satisfaction sequence.
		seqs [][]bool
	}
	invs := map[string]*perInv{}
	failingRuns := 0
	for _, r := range runs {
		if !r.Detected {
			continue
		}
		failingRuns++
		byInv := map[string][]bool{}
		for _, o := range r.Obs {
			byInv[o.InvID] = append(byInv[o.InvID], o.Satisfied)
		}
		for id, seq := range byInv {
			pi := invs[id]
			if pi == nil {
				pi = &perInv{}
				invs[id] = pi
			}
			for len(pi.seqs) < failingRuns-1 {
				pi.seqs = append(pi.seqs, nil) // runs where it was unchecked
			}
			pi.seqs = append(pi.seqs, seq)
		}
	}
	out := map[string]Correlation{}
	for id, pi := range invs {
		for len(pi.seqs) < failingRuns {
			pi.seqs = append(pi.seqs, nil)
		}
		violatedLastEveryRun := true
		extraViolation := false
		anyViolation := false
		for _, seq := range pi.seqs {
			if len(seq) == 0 || seq[len(seq)-1] {
				violatedLastEveryRun = false
			}
			for i, sat := range seq {
				if !sat {
					anyViolation = true
					if i != len(seq)-1 {
						extraViolation = true
					}
				}
			}
		}
		switch {
		case violatedLastEveryRun && !extraViolation:
			out[id] = HighlyCorrelated
		case violatedLastEveryRun:
			out[id] = ModeratelyCorrelated
		case anyViolation:
			out[id] = SlightlyCorrelated
		default:
			out[id] = NotCorrelated
		}
	}
	return out
}

// SelectForRepair applies §2.5's gating: if any invariant is highly
// correlated, repairs are generated only for highly correlated invariants;
// otherwise only for moderately correlated ones. The returned candidates
// preserve selection order.
func SelectForRepair(cands []Candidate, corr map[string]Correlation) []Candidate {
	pick := func(level Correlation) []Candidate {
		var out []Candidate
		for _, c := range cands {
			if corr[c.Inv.ID()] == level {
				out = append(out, c)
			}
		}
		return out
	}
	if high := pick(HighlyCorrelated); len(high) > 0 {
		return high
	}
	return pick(ModeratelyCorrelated)
}

// SelectAllCorrelated returns candidates for every correlated invariant
// (highly, moderately, and slightly) with no tier gating — the ablation
// baseline for the §2.5 gating policy.
func SelectAllCorrelated(cands []Candidate, corr map[string]Correlation) []Candidate {
	var out []Candidate
	for _, c := range cands {
		if corr[c.Inv.ID()] >= SlightlyCorrelated {
			out = append(out, c)
		}
	}
	return out
}
