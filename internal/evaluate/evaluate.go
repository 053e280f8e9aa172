// Package evaluate implements candidate repair evaluation (§2.6): each
// repair carries a score (s − f) + b, where s counts successful executions
// with the repair in place, f counts failures, and b is a bonus awarded
// while the repair has never failed. ClearView always deploys the highest
// scoring repair, breaking ties with the earlier-first and
// state-before-control-flow rules, and keeps evaluating for as long as the
// application runs — a repair that fails long after adoption is demoted
// and replaced.
package evaluate

import (
	"sort"

	"repro/internal/repair"
	"repro/internal/vm"
)

// DefaultBonus is the never-failed bonus b.
const DefaultBonus = 1

// RunFailed is the verdict on one run made under a candidate repair: it
// failed if the failure recurred, the application crashed, or it exited
// nonzero. Live runs, member reports and farm replays are all judged by it.
func RunFailed(recurred bool, outcome vm.Outcome, exitCode uint32) bool {
	return recurred || outcome == vm.OutcomeCrash || (outcome == vm.OutcomeExit && exitCode != 0)
}

// Entry tracks one repair's evaluation state.
type Entry struct {
	Repair    *repair.Repair
	ID        string // Repair.ID(), formatted once by New
	Successes int
	Failures  int
}

// Score returns (s − f) + b with the bonus applied only while the repair
// has never failed.
func (e *Entry) Score(bonus int) int {
	s := e.Successes - e.Failures
	if e.Failures == 0 {
		s += bonus
	}
	return s
}

// Evaluator ranks a candidate repair set for one failure.
type Evaluator struct {
	Bonus int
	// ReverseTieBreak inverts the §2.6 ordering rules (latest-first,
	// control-flow before state) — the ablation baseline showing how the
	// paper's ordering minimizes unsuccessful repair runs.
	ReverseTieBreak bool

	entries []*Entry
	byID    map[string]*Entry
}

// New builds an evaluator over the candidate repairs.
func New(repairs []*repair.Repair, bonus int) *Evaluator {
	if bonus <= 0 {
		bonus = DefaultBonus
	}
	ev := &Evaluator{Bonus: bonus, byID: make(map[string]*Entry, len(repairs))}
	for _, r := range repairs {
		id := r.ID()
		if _, dup := ev.byID[id]; dup {
			continue
		}
		e := &Entry{Repair: r, ID: id}
		ev.entries = append(ev.entries, e)
		ev.byID[id] = e
	}
	return ev
}

// Len returns the number of distinct candidate repairs.
func (ev *Evaluator) Len() int { return len(ev.entries) }

// Best returns the highest-scoring repair entry, or nil when the candidate
// set is empty. Ties break by the repair ordering rules.
func (ev *Evaluator) Best() *Entry {
	var best *Entry
	for _, e := range ev.entries {
		if best == nil {
			best = e
			continue
		}
		bs, es := best.Score(ev.Bonus), e.Score(ev.Bonus)
		tieWins := repair.Less(e.Repair, best.Repair)
		if ev.ReverseTieBreak {
			tieWins = repair.Less(best.Repair, e.Repair)
		}
		if es > bs || (es == bs && tieWins) {
			best = e
		}
	}
	return best
}

// Ranked returns all entries ordered as the evaluator would deploy them:
// by score descending, ties broken by the repair ordering rules. The
// community manager uses this to assign different candidate repairs to
// different members for parallel evaluation (§3).
func (ev *Evaluator) Ranked() []*Entry {
	out := append([]*Entry(nil), ev.entries...)
	less := func(a, b *Entry) bool {
		as, bs := a.Score(ev.Bonus), b.Score(ev.Bonus)
		if as != bs {
			return as > bs
		}
		if ev.ReverseTieBreak {
			return repair.Less(b.Repair, a.Repair)
		}
		return repair.Less(a.Repair, b.Repair)
	}
	sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// RecordSuccess credits a successful evaluation run.
func (ev *Evaluator) RecordSuccess(id string) {
	if e := ev.byID[id]; e != nil {
		e.Successes++
	}
}

// RecordFailure debits a failed evaluation run.
func (ev *Evaluator) RecordFailure(id string) {
	if e := ev.byID[id]; e != nil {
		e.Failures++
	}
}

// Record feeds one evaluation verdict — live or replayed — crediting a
// survival and debiting anything else. The replay farm uses this to apply
// a whole batch of offline verdicts before the next live deployment.
func (ev *Evaluator) Record(id string, survived bool) {
	if survived {
		ev.RecordSuccess(id)
	} else {
		ev.RecordFailure(id)
	}
}

// Exhausted reports whether every candidate repair has failed at least
// once and none has ever succeeded — the point at which ClearView has no
// further repair worth deploying for this failure (the monitors continue
// to block the attack; exploit 307259 ends here).
func (ev *Evaluator) Exhausted() bool {
	if len(ev.entries) == 0 {
		return true
	}
	for _, e := range ev.entries {
		if e.Failures == 0 || e.Successes > 0 {
			return false
		}
	}
	return true
}

// Entries returns all evaluation entries (stable candidate order).
func (ev *Evaluator) Entries() []*Entry { return ev.entries }

// UnsuccessfulRuns returns the total number of failed evaluation runs —
// the Table 3 "Unsuccessful Repair Runs (n)" count.
func (ev *Evaluator) UnsuccessfulRuns() int {
	n := 0
	for _, e := range ev.entries {
		n += e.Failures
	}
	return n
}
