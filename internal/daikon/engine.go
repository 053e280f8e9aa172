package daikon

import "slices"

// Obs is one runtime observation of a variable's value.
type Obs struct {
	Var VarID
	Val uint32
}

// DefaultMaxOneOf is the largest value set a one-of invariant may hold
// before the inference gives up on it (keeping inference tractable —
// §2.2.2's "small enough to make the inference task computationally
// tractable").
const DefaultMaxOneOf = 8

// varStat accumulates per-variable statistics. A zero count means the
// entry holds nothing; the first observation initializes it.
type varStat struct {
	count      uint64
	min        int32
	vals       []uint32 // the one-of set, unordered; dead once oneOfDead
	oneOfDead  bool     // the set outgrew MaxOneOf
	nonPointer bool

	// Nonzero family: sawZero kills the invariant; nzWitness folds toward
	// the observed value of smallest magnitude (ties: smaller unsigned),
	// the deterministic constant the nonzero-guard repair enforces.
	sawZero   bool
	nzWitness uint32

	// Modulus family: modFirst is the first observed value; modGCD is the
	// running gcd of 2^32 and every unsigned difference (v - modFirst)
	// over later observations (2^32 until a second distinct value
	// arrives). Folding 2^32 into the gcd keeps the modulus a divisor of
	// 2^32, which makes the unsigned mod-2^32 congruence check in
	// Invariant.Holds exact — a modulus derived from signed distances
	// would otherwise be violated by its own training data (e.g. values
	// 5 and -1 are 6 apart signed but 0xFFFFFFFA apart in Z/2^32).
	// A final gcd in [2, 2^32) yields v ≡ modFirst (mod gcd).
	modFirst uint32
	modGCD   uint64
}

func (st *varStat) observe(val uint32, maxOneOf int) {
	if st.count == 0 {
		*st = varStat{
			min: int32(val), vals: st.vals[:0],
			nzWitness: val, modFirst: val, modGCD: 1 << 32,
		}
	}
	st.count++
	if int32(val) < st.min {
		st.min = int32(val)
	}
	if val == 0 {
		st.sawZero = true
	} else if closerToZero(val, st.nzWitness) || st.nzWitness == 0 {
		st.nzWitness = val
	}
	if val != st.modFirst {
		st.modGCD = gcd(st.modGCD, uint64(val-st.modFirst))
	}
	st.addOneOf(val, maxOneOf)
	// The pointer heuristic of §2.2.4: a negative value or one between 1
	// and 100,000 proves the variable is not a pointer.
	if int32(val) < 0 || (val >= 1 && val <= 100000) {
		st.nonPointer = true
	}
}

// addOneOf adds val to the one-of set, killing the set once it would
// hold more than maxOneOf values.
func (st *varStat) addOneOf(val uint32, maxOneOf int) {
	if st.oneOfDead || slices.Contains(st.vals, val) {
		return
	}
	if len(st.vals) >= maxOneOf {
		st.oneOfDead = true
		st.vals = st.vals[:0]
		return
	}
	if st.vals == nil {
		st.vals = make([]uint32, 0, min(maxOneOf, DefaultMaxOneOf))
	}
	st.vals = append(st.vals, val)
}

// merge folds r's statistics into st exactly as if st had observed r's
// values after its own.
func (st *varStat) merge(r *varStat, maxOneOf int) {
	if st.count == 0 {
		vals := st.vals[:0]
		*st = *r
		st.vals = vals
		for _, val := range r.vals {
			st.addOneOf(val, maxOneOf)
		}
		return
	}
	st.count += r.count
	st.min = min(st.min, r.min)
	st.sawZero = st.sawZero || r.sawZero
	st.nonPointer = st.nonPointer || r.nonPointer
	if r.nzWitness != 0 && (st.nzWitness == 0 || closerToZero(r.nzWitness, st.nzWitness)) {
		st.nzWitness = r.nzWitness
	}
	st.modGCD = gcd(gcd(st.modGCD, r.modGCD), uint64(r.modFirst-st.modFirst))
	if r.oneOfDead {
		st.oneOfDead = true
		st.vals = st.vals[:0]
	}
	for _, val := range r.vals {
		st.addOneOf(val, maxOneOf)
	}
}

// closerToZero reports whether a is a "smaller" value than b for witness
// selection: smaller signed magnitude first, smaller unsigned value on ties.
func closerToZero(a, b uint32) bool {
	ma, mb := int64(int32(a)), int64(int32(b))
	if ma < 0 {
		ma = -ma
	}
	if mb < 0 {
		mb = -mb
	}
	if ma != mb {
		return ma < mb
	}
	return a < b
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// pairStat tracks the surviving relations between two variables observed
// in the same basic-block pass.
type pairStat struct {
	count    uint64
	alwaysLE bool // a ≤ b in every pass (signed)
	alwaysGE bool // a ≥ b in every pass (signed)
	alwaysEQ bool // a == b in every pass (duplicate-variable candidates)
}

func (ps *pairStat) observe(a, b uint32) {
	if ps.count == 0 {
		ps.alwaysLE, ps.alwaysGE, ps.alwaysEQ = true, true, true
	}
	ps.count++
	av, bv := int32(a), int32(b)
	ps.alwaysLE = ps.alwaysLE && av <= bv
	ps.alwaysGE = ps.alwaysGE && av >= bv
	ps.alwaysEQ = ps.alwaysEQ && av == bv
}

func (ps *pairStat) merge(r *pairStat) {
	if ps.count == 0 {
		*ps = *r
		return
	}
	ps.count += r.count
	ps.alwaysLE = ps.alwaysLE && r.alwaysLE
	ps.alwaysGE = ps.alwaysGE && r.alwaysGE
	ps.alwaysEQ = ps.alwaysEQ && r.alwaysEQ
}

// spStat tracks the stack-pointer offset at one instruction.
type spStat struct {
	delta      uint32
	count      uint64
	consistent bool
}

func (s *spStat) observe(delta uint32) {
	if s.count == 0 {
		s.delta, s.consistent = delta, true
	}
	s.count++
	if s.delta != delta {
		s.consistent = false
	}
}

func (s *spStat) merge(r *spStat) {
	if s.count == 0 {
		*s = *r
		return
	}
	s.count += r.count
	s.consistent = s.consistent && r.consistent && s.delta == r.delta
}

// runLayer holds one run's statistics until the run is committed or
// discarded, with the indices it touched so either costs only what the
// run observed.
type runLayer struct {
	vars  []varStat
	pairs []pairStat
	sps   []spStat

	touchedVars, touchedPairs, touchedSPs []int32
}

// Engine is one member's local inference engine. The front end resolves
// each variable, each ordered pair of variables and each stack-pointer
// site to a dense index once (Var, Pair, SP), when it instruments a
// block, and folds every observation into a per-run layer in O(1)
// (FoldVar, FoldPair, FoldSP). CommitRun merges the run into the
// committed statistics and DiscardRun drops it: only executions that
// ended normally reach the database (§3.1: "our currently implemented
// system simply excludes invariants from erroneous executions").
// Finalize produces the invariant database from the committed
// statistics; indices handed out for code only discarded runs reached
// hold nothing and are skipped.
type Engine struct {
	MaxOneOf int

	varIndex  map[VarID]int32
	pairIndex map[uint64]int32 // a<<32 | b over dense variables
	spIndex   map[uint32]int32

	varIDs   []VarID
	pairVars [][2]int32
	spPCs    []uint32

	// The committed statistics, by dense index.
	vars  []varStat
	pairs []pairStat
	sps   []spStat

	run runLayer
}

// NewEngine returns an empty inference engine.
func NewEngine() *Engine {
	return &Engine{
		MaxOneOf:  DefaultMaxOneOf,
		varIndex:  make(map[VarID]int32),
		pairIndex: make(map[uint64]int32),
		spIndex:   make(map[uint32]int32),
	}
}

// Var returns the dense index of variable v, handing out the next one on
// first use.
func (e *Engine) Var(v VarID) int32 {
	if i, ok := e.varIndex[v]; ok {
		return i
	}
	i := int32(len(e.varIDs))
	e.varIndex[v] = i
	e.varIDs = append(e.varIDs, v)
	e.vars = append(e.vars, varStat{})
	e.run.vars = append(e.run.vars, varStat{})
	return i
}

// Pair returns the dense index of the ordered pair of dense variables
// (a, b), a observed before b within a pass.
func (e *Engine) Pair(a, b int32) int32 {
	k := uint64(uint32(a))<<32 | uint64(uint32(b))
	if i, ok := e.pairIndex[k]; ok {
		return i
	}
	i := int32(len(e.pairVars))
	e.pairIndex[k] = i
	e.pairVars = append(e.pairVars, [2]int32{a, b})
	e.pairs = append(e.pairs, pairStat{})
	e.run.pairs = append(e.run.pairs, pairStat{})
	return i
}

// SP returns the dense index of the stack-pointer offset statistic of
// the instruction at pc.
func (e *Engine) SP(pc uint32) int32 {
	if i, ok := e.spIndex[pc]; ok {
		return i
	}
	i := int32(len(e.spPCs))
	e.spIndex[pc] = i
	e.spPCs = append(e.spPCs, pc)
	e.sps = append(e.sps, spStat{})
	e.run.sps = append(e.run.sps, spStat{})
	return i
}

// FoldVar folds one observed value of dense variable v into the run.
func (e *Engine) FoldVar(v int32, val uint32) {
	st := &e.run.vars[v]
	if st.count == 0 {
		e.run.touchedVars = append(e.run.touchedVars, v)
	}
	st.observe(val, e.MaxOneOf)
}

// FoldPair folds the values of dense pair p's two variables, observed in
// one pass in the pair's order, into the run. Pair relations are tracked
// only within a pass, implementing the same-basic-block restriction that
// keeps two-variable inference tractable.
func (e *Engine) FoldPair(p int32, a, b uint32) {
	ps := &e.run.pairs[p]
	if ps.count == 0 {
		e.run.touchedPairs = append(e.run.touchedPairs, p)
	}
	ps.observe(a, b)
}

// FoldSP folds the stack-pointer offset (spEntry - spHere) observed at
// dense stack-pointer site s into the run.
func (e *Engine) FoldSP(s int32, delta uint32) {
	st := &e.run.sps[s]
	if st.count == 0 {
		e.run.touchedSPs = append(e.run.touchedSPs, s)
	}
	st.observe(delta)
}

// CommitRun merges the run's statistics into the committed ones and
// starts a new run.
func (e *Engine) CommitRun() {
	for _, v := range e.run.touchedVars {
		e.vars[v].merge(&e.run.vars[v], e.MaxOneOf)
	}
	for _, p := range e.run.touchedPairs {
		e.pairs[p].merge(&e.run.pairs[p])
	}
	for _, s := range e.run.touchedSPs {
		e.sps[s].merge(&e.run.sps[s])
	}
	e.DiscardRun()
}

// DiscardRun drops the run's statistics (the run was erroneous) and
// starts a new run.
func (e *Engine) DiscardRun() {
	for _, v := range e.run.touchedVars {
		st := &e.run.vars[v]
		*st = varStat{vals: st.vals[:0]}
	}
	for _, p := range e.run.touchedPairs {
		e.run.pairs[p] = pairStat{}
	}
	for _, s := range e.run.touchedSPs {
		e.run.sps[s] = spStat{}
	}
	e.run.touchedVars = e.run.touchedVars[:0]
	e.run.touchedPairs = e.run.touchedPairs[:0]
	e.run.touchedSPs = e.run.touchedSPs[:0]
}

// ObserveBlockPass feeds one execution pass through a basic block — the
// observations of every instrumented instruction in the block, in
// execution order — through the same fold as the trace front end, and
// commits it as a run of its own. It is a test-facing convenience:
// calling it also commits any run in progress.
func (e *Engine) ObserveBlockPass(obs []Obs) {
	vars := make([]int32, len(obs))
	for i, o := range obs {
		vars[i] = e.Var(o.Var)
		e.FoldVar(vars[i], o.Val)
		for j := 0; j < i; j++ {
			if vars[j] != vars[i] {
				e.FoldPair(e.Pair(vars[j], vars[i]), obs[j].Val, o.Val)
			}
		}
	}
	e.CommitRun()
}

// ObserveSP feeds the stack-pointer offset (spEntry - spHere) observed at
// one instruction and commits it as a run of its own, like
// ObserveBlockPass.
func (e *Engine) ObserveSP(pc uint32, delta uint32) {
	e.FoldSP(e.SP(pc), delta)
	e.CommitRun()
}

// VarsObserved returns how many distinct variables committed runs have
// observed.
func (e *Engine) VarsObserved() int {
	n := 0
	for i := range e.vars {
		if e.vars[i].count > 0 {
			n++
		}
	}
	return n
}

// Options controls invariant production.
type Options struct {
	// DisablePointerHeuristic emits lower-bound/less-than invariants for
	// pointer variables too (ablation knob). Duplicate-variable
	// elimination is the trace front end's job (it is a static analysis
	// over basic blocks — see internal/trace/dup.go).
	DisablePointerHeuristic bool
}

// Finalize produces the invariant database from everything committed.
func (e *Engine) Finalize(opt Options) *DB {
	db := NewDB()

	for i := range e.vars {
		st := &e.vars[i]
		if st.count == 0 {
			continue
		}
		v := e.varIDs[i]
		db.VarsSeen[v] = st.count
		if !st.oneOfDead && len(st.vals) > 0 {
			vals := slices.Clone(st.vals)
			slices.Sort(vals)
			db.Add(&Invariant{Kind: KindOneOf, Var: v, Values: vals, Samples: st.count})
		}
		if st.nonPointer || opt.DisablePointerHeuristic {
			db.Add(&Invariant{Kind: KindLowerBound, Var: v, Bound: st.min, Samples: st.count})
			if !st.sawZero {
				db.Add(&Invariant{Kind: KindNonzero, Var: v, Bound: int32(st.nzWitness), Samples: st.count})
			}
			if st.modGCD >= 2 && st.modGCD < 1<<32 {
				m := uint32(st.modGCD)
				db.Add(&Invariant{Kind: KindModulus, Var: v, Values: []uint32{m, st.modFirst % m}, Samples: st.count})
			}
		}
	}

	for i := range e.pairs {
		ps := &e.pairs[i]
		if ps.count == 0 {
			continue
		}
		a, b := e.pairVars[i][0], e.pairVars[i][1]
		if (!e.vars[a].nonPointer || !e.vars[b].nonPointer) && !opt.DisablePointerHeuristic {
			continue
		}
		// Emit at most one direction; prefer a ≤ b when both hold
		// (constant-equal pairs that survived dup-elim being disabled).
		switch {
		case ps.alwaysLE:
			db.Add(&Invariant{Kind: KindLessThan, Var: e.varIDs[a], Var2: e.varIDs[b], Samples: ps.count})
		case ps.alwaysGE:
			db.Add(&Invariant{Kind: KindLessThan, Var: e.varIDs[b], Var2: e.varIDs[a], Samples: ps.count})
		}
	}

	for i := range e.sps {
		st := &e.sps[i]
		if st.count > 0 && st.consistent {
			db.Add(&Invariant{
				Kind: KindSPOffset, Var: VarID{PC: e.spPCs[i], Slot: 0xFF},
				Bound: int32(st.delta), Samples: st.count,
			})
		}
	}
	return db
}
