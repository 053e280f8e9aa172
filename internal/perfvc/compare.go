package perfvc

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Verdict classifies one benchmark (or one metric) between two profiles.
type Verdict string

const (
	// VerdictRegression: the candidate is worse beyond both the class
	// tolerance and the baseline's own sample spread.
	VerdictRegression Verdict = "regression"
	// VerdictImprovement: the candidate is better beyond the same bars.
	VerdictImprovement Verdict = "improvement"
	// VerdictWithinNoise: the change sits inside the error bars.
	VerdictWithinNoise Verdict = "within-noise"
	// VerdictNew: the benchmark exists only in the candidate.
	VerdictNew Verdict = "new"
	// VerdictRemoved: the benchmark exists only in the baseline.
	VerdictRemoved Verdict = "removed"
)

// higherBetter marks the metric units where larger is faster; everything
// else (ns/op, allocs/op, B/op, …) regresses upward.
var higherBetter = map[string]bool{"MB/s": true, "B/s": true, "MIPS": true}

// MetricDelta is one gating metric's comparison.
type MetricDelta struct {
	// Metric is the unit string ("ns/op", "MIPS", ...).
	Metric string
	// Verdict is the per-metric classification.
	Verdict Verdict
	// Base and Cand are the two profiles' statistics.
	Base, Cand Stat
	// Ratio is normalized so > 1 is always worse (cand/base for
	// lower-is-better units, base/cand for higher-is-better). Infinite
	// when the baseline was exactly zero and the candidate is not.
	Ratio float64
	// Slack is the absolute excess allowed beyond the baseline extreme:
	// max(tolerance × base median, base min–max spread).
	Slack float64
}

// BenchDelta is one benchmark's comparison across its gating metrics.
type BenchDelta struct {
	// Name is the full benchmark name.
	Name string
	// Class is the tolerance class applied.
	Class Class
	// Verdict is the worst per-metric verdict (regression dominates,
	// then improvement, then within-noise).
	Verdict Verdict
	// Worst is the metric that decided the verdict.
	Worst MetricDelta
	// Metrics holds every gated metric's delta.
	Metrics []MetricDelta
}

// Report is a full profile comparison, ranked most-severe first.
type Report struct {
	// Deltas is every compared benchmark: regressions first (worst
	// ratio first), then improvements, new, removed, within-noise.
	Deltas []BenchDelta
	// Regressions .. Removed count the verdicts.
	Regressions, Improvements, WithinNoise, New, Removed int
}

// Options tunes a comparison.
type Options struct {
	// Suite resolves tolerance classes and gating metrics; nil uses
	// Registry().
	Suite *Suite
	// ToleranceFloor raises every class tolerance to at least this —
	// `perfvc ci` sets it for the noisy shared single-core runner.
	ToleranceFloor float64
	// Scope restricts which registry entries the candidate run
	// covered: baseline benchmarks outside the scope are not reported
	// as removed (a short CI run is not a deletion). Nil means full
	// scope.
	Scope map[string]bool
}

// Compare classifies every benchmark of the two profiles with
// noise-aware verdicts: a candidate median must leave the baseline's
// [min, max] band by more than max(tolerance × baseline median, baseline
// spread) before the change counts as a regression or an improvement.
func Compare(base, cand *Profile, opts Options) *Report {
	suite := opts.Suite
	if suite == nil {
		suite = Registry()
	}
	rep := &Report{}
	seen := map[string]bool{}
	for _, name := range cand.Names() {
		cb := cand.Benchmarks[name]
		seen[name] = true
		bb, ok := base.Benchmarks[name]
		if !ok {
			rep.Deltas = append(rep.Deltas, BenchDelta{Name: name, Verdict: VerdictNew, Class: classFor(suite, name)})
			rep.New++
			continue
		}
		d := compareBench(suite, name, bb, cb, opts.ToleranceFloor)
		rep.Deltas = append(rep.Deltas, d)
		switch d.Verdict {
		case VerdictRegression:
			rep.Regressions++
		case VerdictImprovement:
			rep.Improvements++
		default:
			rep.WithinNoise++
		}
	}
	for _, name := range base.Names() {
		if seen[name] {
			continue
		}
		if opts.Scope != nil {
			// A name no registry entry claims any more was deleted from
			// the suite, so it is removed whatever the scope.
			if e := suite.EntryFor(name); e != nil && !opts.Scope[e.Name] {
				continue // the candidate run never attempted this entry
			}
		}
		rep.Deltas = append(rep.Deltas, BenchDelta{Name: name, Verdict: VerdictRemoved, Class: classFor(suite, name)})
		rep.Removed++
	}
	rank(rep.Deltas)
	return rep
}

// classFor resolves a benchmark's tolerance class, defaulting to noisy
// for names outside the registry (legacy baselines).
func classFor(suite *Suite, name string) Class {
	if e := suite.EntryFor(name); e != nil {
		return e.Class
	}
	return ClassNoisy
}

// compareBench classifies one benchmark across its gating metrics.
func compareBench(suite *Suite, name string, base, cand Bench, floor float64) BenchDelta {
	class := classFor(suite, name)
	tol := class.Tolerance()
	if floor > tol {
		tol = floor
	}
	gates := []string{"ns/op"}
	if e := suite.EntryFor(name); e != nil {
		gates = e.GateMetrics()
	}
	d := BenchDelta{Name: name, Class: class, Verdict: VerdictWithinNoise}
	for _, unit := range gates {
		bs, bok := base.Metrics[unit]
		cs, cok := cand.Metrics[unit]
		if !bok || !cok {
			continue // a metric only one side reported cannot gate
		}
		md := compareMetric(unit, bs, cs, tol)
		d.Metrics = append(d.Metrics, md)
		if worse(md.Verdict, d.Verdict) || (md.Verdict == d.Verdict && md.Ratio > d.Worst.Ratio) {
			d.Verdict = md.Verdict
			d.Worst = md
		}
	}
	return d
}

// compareMetric applies the noise-aware rule to one metric: the
// candidate median must exceed the baseline max (or undercut the min,
// for higher-is-better units) by more than max(tol × baseline median,
// baseline spread) to leave the noise band.
func compareMetric(unit string, base, cand Stat, tol float64) MetricDelta {
	slack := tol * math.Abs(base.Median)
	if sp := base.Spread(); sp > slack {
		slack = sp
	}
	md := MetricDelta{Metric: unit, Base: base, Cand: cand, Slack: slack, Verdict: VerdictWithinNoise}
	worseDir, betterDir := cand.Median > base.Max+slack, cand.Median < base.Min-slack
	if higherBetter[unit] {
		worseDir, betterDir = cand.Median < base.Min-slack, cand.Median > base.Max+slack
	}
	switch {
	case worseDir:
		md.Verdict = VerdictRegression
	case betterDir:
		md.Verdict = VerdictImprovement
	}
	md.Ratio = ratio(unit, base.Median, cand.Median)
	return md
}

// ratio normalizes so > 1 is always worse.
func ratio(unit string, base, cand float64) float64 {
	a, b := cand, base // lower is better: worse when cand grows
	if higherBetter[unit] {
		a, b = base, cand
	}
	switch {
	case b != 0:
		return a / b
	case a == 0:
		return 1
	default:
		return math.Inf(1)
	}
}

// worse reports whether verdict a outranks b in severity.
func worse(a, b Verdict) bool { return severity(a) > severity(b) }

// severity orders verdicts for ranking: regressions first, then
// improvements (worth a look), then new/removed (coverage changes),
// then within-noise.
func severity(v Verdict) int {
	switch v {
	case VerdictRegression:
		return 4
	case VerdictImprovement:
		return 3
	case VerdictNew:
		return 2
	case VerdictRemoved:
		return 1
	default:
		return 0
	}
}

// rank sorts deltas most-severe first; within a verdict, worst ratio
// first, name as the deterministic tiebreak.
func rank(deltas []BenchDelta) {
	sort.SliceStable(deltas, func(i, j int) bool {
		si, sj := severity(deltas[i].Verdict), severity(deltas[j].Verdict)
		if si != sj {
			return si > sj
		}
		if deltas[i].Worst.Ratio != deltas[j].Worst.Ratio {
			return deltas[i].Worst.Ratio > deltas[j].Worst.Ratio
		}
		return deltas[i].Name < deltas[j].Name
	})
}

// Err returns a gate error naming every regressed benchmark, or nil.
func (r *Report) Err() error {
	if r.Regressions == 0 {
		return nil
	}
	var names []string
	for _, d := range r.Deltas {
		if d.Verdict == VerdictRegression {
			names = append(names, fmt.Sprintf("%s (%s %s)", d.Name, d.Worst.Metric, fmtRatio(d.Worst.Ratio)))
		}
	}
	return fmt.Errorf("%d benchmark(s) regressed beyond noise: %s", r.Regressions, strings.Join(names, ", "))
}

// Table renders the ranked verdict table through the shared obs
// renderer.
func (r *Report) Table() string {
	rows := make([][]string, 0, len(r.Deltas))
	for _, d := range r.Deltas {
		switch d.Verdict {
		case VerdictNew, VerdictRemoved:
			rows = append(rows, []string{d.Name, string(d.Verdict), "-", "-", "-", "-", d.Class.String()})
			continue
		}
		w := d.Worst
		if w.Metric == "" {
			rows = append(rows, []string{d.Name, string(d.Verdict), "-", "-", "-", "-", d.Class.String()})
			continue
		}
		rows = append(rows, []string{
			d.Name, string(d.Verdict), w.Metric,
			fmtStat(w.Base), fmtStat(w.Cand), fmtRatio(w.Ratio), d.Class.String(),
		})
	}
	var b strings.Builder
	b.WriteString(obs.FormatTable([]obs.Col{
		{Head: "benchmark", Min: 28},
		{Head: "verdict", Min: 12},
		{Head: "metric", Min: 9},
		{Head: "baseline (median [min..max])", Right: true, Min: 24},
		{Head: "candidate", Right: true, Min: 16},
		{Head: "worse×", Right: true, Min: 7},
		{Head: "class", Gap: 2},
	}, rows))
	fmt.Fprintf(&b, "\n%d regression(s), %d improvement(s), %d within noise, %d new, %d removed\n",
		r.Regressions, r.Improvements, r.WithinNoise, r.New, r.Removed)
	return b.String()
}

// fmtStat renders "median [min..max]" with adaptive precision.
func fmtStat(s Stat) string {
	return fmt.Sprintf("%s [%s..%s]", fmtNum(s.Median), fmtNum(s.Min), fmtNum(s.Max))
}

// fmtNum renders a metric value compactly.
func fmtNum(v float64) string {
	av := math.Abs(v)
	switch {
	case v == math.Trunc(v) && av < 1e15:
		return fmt.Sprintf("%.0f", v)
	case av >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// fmtRatio renders the normalized worse-ness ratio.
func fmtRatio(r float64) string {
	if math.IsInf(r, 1) {
		return "∞"
	}
	return fmt.Sprintf("%.2f", r)
}
