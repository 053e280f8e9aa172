package daikon

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
)

// DB is an invariant database: every invariant that held in all observed
// normal executions, indexed by the instruction where it is checked.
// Community members upload their local DBs to the central server, which
// merges them into the community-wide database (§3.1) — an invariant
// survives the merge only if it holds on every member that observed its
// variables.
type DB struct {
	ByID map[string]*Invariant
	// VarsSeen records how many times each variable was observed; the
	// merge rules need to distinguish "member never saw this variable"
	// (invariant survives) from "member saw it but the invariant did not
	// hold" (invariant dies).
	VarsSeen map[VarID]uint64

	byPC map[uint32][]*Invariant // derived index, rebuilt as needed
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{ByID: make(map[string]*Invariant), VarsSeen: make(map[VarID]uint64)}
}

// Add inserts or replaces an invariant.
func (db *DB) Add(inv *Invariant) {
	db.ByID[inv.ID()] = inv
	db.byPC = nil
}

// Remove deletes an invariant by ID.
func (db *DB) Remove(id string) {
	delete(db.ByID, id)
	db.byPC = nil
}

// Len returns the number of invariants.
func (db *DB) Len() int { return len(db.ByID) }

func (db *DB) index() {
	if db.byPC != nil {
		return
	}
	db.byPC = make(map[uint32][]*Invariant)
	for _, inv := range db.ByID {
		pc := inv.PC()
		db.byPC[pc] = append(db.byPC[pc], inv)
	}
	for _, list := range db.byPC {
		sortByID(list)
	}
}

// sortByID orders invariants by ID, formatting each ID once rather than
// on both sides of every comparison.
func sortByID(invs []*Invariant) {
	type keyed struct {
		id  string
		inv *Invariant
	}
	ks := make([]keyed, len(invs))
	for i, inv := range invs {
		ks[i] = keyed{inv.ID(), inv}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].id < ks[j].id })
	for i := range ks {
		invs[i] = ks[i].inv
	}
}

// At returns the invariants checked at the instruction at pc, in stable
// order. SP-offset invariants are excluded (they are auxiliary).
func (db *DB) At(pc uint32) []*Invariant {
	db.index()
	var out []*Invariant
	for _, inv := range db.byPC[pc] {
		if inv.Kind != KindSPOffset {
			out = append(out, inv)
		}
	}
	return out
}

// SPOffsetAt returns the stack-pointer offset invariant at pc, if one was
// learned: spEntry = spHere + delta.
func (db *DB) SPOffsetAt(pc uint32) (delta uint32, ok bool) {
	db.index()
	for _, inv := range db.byPC[pc] {
		if inv.Kind == KindSPOffset {
			return uint32(inv.Bound), true
		}
	}
	return 0, false
}

// All returns every invariant sorted by ID (stable iteration for tests and
// reports).
func (db *DB) All() []*Invariant {
	out := make([]*Invariant, 0, len(db.ByID))
	for _, inv := range db.ByID {
		out = append(out, inv)
	}
	sortByID(out)
	return out
}

// CountByKind returns how many invariants of each kind the DB holds.
func (db *DB) CountByKind() map[Kind]int {
	out := make(map[Kind]int)
	for _, inv := range db.ByID {
		out[inv.Kind]++
	}
	return out
}

// observedAllVars reports whether the DB's member observed every variable
// the invariant mentions.
func (db *DB) observedAllVars(inv *Invariant) bool {
	if _, ok := db.VarsSeen[inv.Var]; !ok {
		return false
	}
	if inv.Kind == KindLessThan {
		_, ok := db.VarsSeen[inv.Var2]
		return ok
	}
	return true
}

// Merge folds another member's database into this one, implementing the
// community-wide semantics: the result contains exactly the invariants
// that hold across all executions on all contributing members.
func (db *DB) Merge(other *DB, maxOneOf int) {
	if maxOneOf <= 0 {
		maxOneOf = DefaultMaxOneOf
	}
	// Invariants present here but contradicted by the other member. Each
	// one both members hold and the merge drops is kept in dropped, so the
	// second loop does not adopt the other member's copy.
	var dropped map[string]bool
	drop := func(id string) {
		if dropped == nil {
			dropped = make(map[string]bool)
		}
		dropped[id] = true
		delete(db.ByID, id)
	}
	for id, inv := range db.ByID {
		o, ok := other.ByID[id]
		if ok {
			switch inv.Kind {
			case KindOneOf:
				merged := unionSorted(inv.Values, o.Values)
				if len(merged) > maxOneOf {
					drop(id)
					continue
				}
				inv.Values = merged
			case KindLowerBound:
				if o.Bound < inv.Bound {
					inv.Bound = o.Bound
				}
			case KindSPOffset:
				if o.Bound != inv.Bound {
					drop(id)
					continue
				}
			case KindNonzero:
				// Both members saw the variable only nonzero; keep the
				// witness of smaller magnitude so enforcement stays the
				// gentlest observed constant.
				if closerToZero(uint32(o.Bound), uint32(inv.Bound)) {
					inv.Bound = o.Bound
				}
			case KindModulus:
				// The community-wide congruence is the coarsest one both
				// members' observations satisfy: modulus gcd(m1, m2,
				// r1 - r2 in Z/2^32), dead if that collapses below 2. The
				// residue distance is the unsigned mod-2^32 difference,
				// matching Holds's arithmetic; both inputs divide 2^32
				// (the engine folds 2^32 into its gcd), so the result
				// does too.
				m1, r1 := inv.Modulus()
				m2, r2 := o.Modulus()
				m := gcd(gcd(uint64(m1), uint64(m2)), uint64(r1-r2))
				if m < 2 {
					drop(id)
					continue
				}
				inv.Values = []uint32{uint32(m), r1 % uint32(m)}
			}
			inv.Samples += o.Samples
			continue
		}
		if other.observedAllVars(inv) {
			// The other member saw the variables but did not infer the
			// invariant: it does not hold community-wide.
			delete(db.ByID, id)
		}
	}
	// Invariants only in the other member's DB survive if we never
	// observed their variables.
	for id, o := range other.ByID {
		if _, ok := db.ByID[id]; ok || dropped[id] {
			continue
		}
		if !db.observedAllVars(o) {
			cp := *o
			db.ByID[id] = &cp
		}
	}
	for v, n := range other.VarsSeen {
		db.VarsSeen[v] += n
	}
	db.byPC = nil
}

func unionSorted(a, b []uint32) []uint32 {
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Marshal serializes the database (gob) for upload to the central server.
func (db *DB) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	payload := dbWire{ByID: db.ByID, VarsSeen: db.VarsSeen}
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		return nil, fmt.Errorf("daikon: marshal: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalDB parses a serialized database.
func UnmarshalDB(b []byte) (*DB, error) {
	var payload dbWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&payload); err != nil {
		return nil, fmt.Errorf("daikon: unmarshal: %w", err)
	}
	db := NewDB()
	if payload.ByID != nil {
		db.ByID = payload.ByID
	}
	if payload.VarsSeen != nil {
		db.VarsSeen = payload.VarsSeen
	}
	return db, nil
}

type dbWire struct {
	ByID     map[string]*Invariant
	VarsSeen map[VarID]uint64
}
