package perfvc

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Class is a tolerance class: how much run-to-run noise a benchmark is
// expected to carry on top of its own observed sample spread. The class
// sets the relative tolerance the comparator applies to the baseline
// median; the baseline's min–max spread widens it further when the
// samples themselves were noisier than the class assumes.
type Class int

const (
	// ClassSteady is for tight microbenchmarks (fixed-iteration hot
	// loops): 25% relative tolerance.
	ClassSteady Class = iota
	// ClassMixed is for mid-size benchmarks with some setup in the
	// timed region: 40% relative tolerance.
	ClassMixed
	// ClassNoisy is for end-to-end pipeline benchmarks at few-iteration
	// benchtimes: 75% relative tolerance.
	ClassNoisy
)

// Tolerance is the class's relative tolerance on the baseline median.
func (c Class) Tolerance() float64 {
	switch c {
	case ClassSteady:
		return 0.25
	case ClassMixed:
		return 0.40
	default:
		return 0.75
	}
}

// String names the class for tables and docs.
func (c Class) String() string {
	switch c {
	case ClassSteady:
		return "steady"
	case ClassMixed:
		return "mixed"
	default:
		return "noisy"
	}
}

// Entry declares one canonical benchmark: the top-level Benchmark
// function name, the package it lives in, how long to sample it (full
// recording vs the short CI gate), its tolerance class, and which
// reported metrics gate the verdict vs ride along as context. This
// registry is the single source of truth the runner, the comparator,
// the docs, and the suite-drift test all read.
type Entry struct {
	// Name is the Benchmark function, e.g. "BenchmarkDispatchHot".
	Name string
	// Package is the go package path ("." = repo root).
	Package string
	// Benchtime is the -benchtime for `perfvc record` (full baselines).
	Benchtime string
	// CIBenchtime is the shorter -benchtime `perfvc ci` uses.
	CIBenchtime string
	// Class is the tolerance class.
	Class Class
	// Gate lists the metric units whose drift produces a verdict.
	// Defaults to ns/op when empty.
	Gate []string
	// Info lists metrics recorded for context but never gating
	// (deterministic counts like presentations or msgs, asserted
	// exactly by the test suite instead).
	Info []string
}

// GateMetrics is Entry.Gate with the ns/op default applied.
func (e *Entry) GateMetrics() []string {
	if len(e.Gate) == 0 {
		return []string{"ns/op"}
	}
	return e.Gate
}

// Exclusion names a Benchmark function deliberately outside the suite,
// with the reason the drift test shows when someone asks.
type Exclusion struct {
	// Name is the excluded Benchmark function.
	Name string
	// Package is the go package path it lives in.
	Package string
	// Reason explains why exclusion is correct. Never empty.
	Reason string
}

// Suite is a benchmark registry: the tracked entries plus the explicit
// exclusions. Registry() returns the repo's canonical one.
type Suite struct {
	// Entries are the tracked benchmarks.
	Entries []Entry
	// Excluded are the deliberately untracked benchmarks.
	Excluded []Exclusion
}

// Registry returns the repo's canonical benchmark suite. Every
// `func Benchmark*` in the repo must appear here — as an entry or an
// exclusion — or the suite-drift test fails the build.
func Registry() *Suite {
	return &Suite{
		Entries: []Entry{
			// internal/vm — the interpreter dispatch hot path (PR 3's
			// 17.8→115.9 MIPS is the number this suite exists to keep).
			{Name: "BenchmarkDispatchHot", Package: "./internal/vm", Benchtime: "200000x", CIBenchtime: "30000x",
				Class: ClassSteady, Gate: []string{"ns/op", "allocs/op", "MIPS"}, Info: []string{"instrs/op"}},
			{Name: "BenchmarkDispatchCoverage", Package: "./internal/vm", Benchtime: "200000x", CIBenchtime: "30000x",
				Class: ClassSteady, Gate: []string{"ns/op", "allocs/op", "MIPS"}, Info: []string{"instrs/op"}},
			{Name: "BenchmarkDispatchHooked", Package: "./internal/vm", Benchtime: "200000x", CIBenchtime: "30000x",
				Class: ClassSteady, Gate: []string{"ns/op", "allocs/op", "MIPS"}, Info: []string{"instrs/op"}},
			// CI keeps the full 20000x here: the machine's set-up runs inside
			// the timed loop, and at 5000x it read ~2x the 20000x ns/op.
			{Name: "BenchmarkCopyB", Package: "./internal/vm", Benchtime: "20000x", CIBenchtime: "20000x",
				Class: ClassSteady, Gate: []string{"ns/op", "allocs/op", "MB/s"}},

			// internal/mem — the page-table/TLB/COW memory hierarchy.
			{Name: "BenchmarkRead32", Package: "./internal/mem", Benchtime: "1000000x", CIBenchtime: "200000x",
				Class: ClassSteady, Gate: []string{"ns/op", "allocs/op"}},
			{Name: "BenchmarkWrite32", Package: "./internal/mem", Benchtime: "1000000x", CIBenchtime: "200000x",
				Class: ClassSteady, Gate: []string{"ns/op", "allocs/op"}},
			{Name: "BenchmarkWrite32AfterClone", Package: "./internal/mem", Benchtime: "1000000x", CIBenchtime: "200000x",
				Class: ClassSteady, Gate: []string{"ns/op", "allocs/op"}},
			{Name: "BenchmarkReadBytes4K", Package: "./internal/mem", Benchtime: "100000x", CIBenchtime: "20000x",
				Class: ClassSteady, Gate: []string{"ns/op", "MB/s"}},
			{Name: "BenchmarkWriteBytes4K", Package: "./internal/mem", Benchtime: "100000x", CIBenchtime: "20000x",
				Class: ClassSteady, Gate: []string{"ns/op", "MB/s"}},

			// Root package — the end-to-end paper tables and pipeline
			// primitives (timing gates; their deterministic count metrics
			// — presentations, survivors, msgs — are asserted exactly by
			// the test suite and ride along as Info).
			// Table 1 also gates allocs/op: deterministic to within a few
			// allocations per campaign, it is what catches a check path
			// that allocates again (hang-loop once paid 5.8M a campaign).
			{Name: "BenchmarkTable1", Package: ".", Benchtime: "2x", CIBenchtime: "1x",
				Class: ClassNoisy, Gate: []string{"ns/op", "allocs/op"}, Info: []string{"presentations"}},
			// Table 2 gates allocs/op and B/op as well: its seven rows build
			// one fresh machine per page, so a per-machine structure that
			// grows with the code run (the address index the patched row
			// once paid for) shows up there first, and so does a return to
			// per-machine instrumentation (9.8k allocations a Bare sweep and
			// 27.9k for the patched row before the shared code table,
			// against 1.8k and 2.6k).
			{Name: "BenchmarkTable2", Package: ".", Benchtime: "2x", CIBenchtime: "1x",
				Class: ClassNoisy, Gate: []string{"ns/op", "allocs/op", "B/op"}, Info: []string{"hook-runs"}},
			{Name: "BenchmarkLearningOff", Package: ".", Benchtime: "2x", CIBenchtime: "1x", Class: ClassNoisy},
			// LearningOn gates allocs/op and B/op as well: its samples agree
			// to within a few allocations and bytes, and a recorder that
			// buffers observations per run again (32.5k allocations and
			// 2.8 MB an op before the fold, against 9.9k and 1.5 MB) fails
			// by name.
			{Name: "BenchmarkLearningOn", Package: ".", Benchtime: "2x", CIBenchtime: "1x",
				Class: ClassNoisy, Gate: []string{"ns/op", "allocs/op", "B/op"}, Info: []string{"trace-entries"}},
			{Name: "BenchmarkReplayFarm", Package: ".", Benchtime: "2x", CIBenchtime: "1x",
				Class: ClassNoisy, Info: []string{"survivors"}},
			// The community soak arm: convergence topology cost at 12
			// nodes across per-message / batched / hierarchical modes.
			{Name: "BenchmarkCommunitySoak", Package: ".", Benchtime: "2x", CIBenchtime: "1x",
				Class: ClassNoisy, Info: []string{"msgs", "replays"}},
			// The simulated soak arm: handler and wire-codec cost for a
			// 2k-node hierarchical campaign with churn and adversaries
			// (the counts are deterministic). It also gates allocs/op and
			// B/op: its samples agree to within a few dozen allocations,
			// so a return to a reflective per-envelope codec (gob cost
			// ~6M allocations a campaign) fails by name.
			{Name: "BenchmarkSimSoak", Package: ".", Benchtime: "2x", CIBenchtime: "1x",
				Class: ClassNoisy, Gate: []string{"ns/op", "allocs/op", "B/op"}, Info: []string{"events", "msgs", "memo-hits"}},
		},
		Excluded: []Exclusion{
			{Name: "BenchmarkTable3", Package: ".",
				Reason: "reports the deterministic Table 3 count columns (checks built/run, violations, repairs); the counts are asserted exactly by internal/redteam's table3 tests and its timing duplicates BenchmarkTable1's per-exploit runs"},
			{Name: "BenchmarkPatchGenerationTime", Package: ".",
				Reason: "an aggregate re-run of BenchmarkTable1's exploits whose metric (mean-presentations) is deterministic and asserted by the redteam tests; tracking it would double-count Table1's timing"},
			{Name: "BenchmarkAblationSameBlock", Package: ".",
				Reason: "design ablation reporting a deterministic candidate count, not a timing surface"},
			{Name: "BenchmarkAblationDupElim", Package: ".",
				Reason: "design ablation reporting deterministic invariant/trace-entry counts, not a timing surface"},
			{Name: "BenchmarkAblationPointerHeuristic", Package: ".",
				Reason: "design ablation reporting a deterministic invariant count, not a timing surface"},
			{Name: "BenchmarkAblationCorrelationGate", Package: ".",
				Reason: "design ablation reporting a deterministic invariants-to-repair count, not a timing surface"},
			{Name: "BenchmarkAblationRepairOrder", Package: ".",
				Reason: "design ablation reporting deterministic unsuccessful-run/presentation counts, not a timing surface"},
			{Name: "BenchmarkCommunityProtection", Package: ".",
				Reason: "single-victim community round trip subsumed by BenchmarkCommunitySoak's per-message arm, which times the same protocol at community scale"},
		},
	}
}

// EntryFor resolves a benchmark result name (possibly a sub-benchmark
// like "BenchmarkTable1/290162") to its registry entry, or nil.
func (s *Suite) EntryFor(name string) *Entry {
	top := name
	if i := strings.IndexByte(top, '/'); i >= 0 {
		top = top[:i]
	}
	for i := range s.Entries {
		if s.Entries[i].Name == top {
			return &s.Entries[i]
		}
	}
	return nil
}

// group is one `go test -bench` invocation: every entry of a package
// that shares a benchtime.
type group struct {
	pkg       string
	benchtime string
	names     []string
}

// groups partitions the suite into invocations, preserving declaration
// order, using CI benchtimes when ci is set.
func (s *Suite) groups(ci bool) []group {
	var out []group
	idx := map[string]int{}
	for _, e := range s.Entries {
		bt := e.Benchtime
		if ci && e.CIBenchtime != "" {
			bt = e.CIBenchtime
		}
		key := e.Package + "\x00" + bt
		i, ok := idx[key]
		if !ok {
			i = len(out)
			idx[key] = i
			out = append(out, group{pkg: e.Package, benchtime: bt})
		}
		out[i].names = append(out[i].names, e.Name)
	}
	return out
}

// benchRegexFunc is the `func Benchmark*` declaration the drift scan
// looks for — the same shape `go test` itself discovers.
var benchRegexFunc = regexp.MustCompile(`(?m)^func (Benchmark\w+)\(\w+ \*testing\.B\)`)

// RepoBenchmarks scans every *_test.go under root (skipping .git and
// testdata) for top-level Benchmark functions and returns each mapped to
// the go package path it lives in ("." or "./<dir>"). The suite-drift
// test compares this against the registry so a new benchmark cannot
// silently escape regression tracking.
func RepoBenchmarks(root string) (map[string]string, error) {
	found := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := "."
		if rel != "." {
			pkg = "./" + filepath.ToSlash(rel)
		}
		for _, m := range benchRegexFunc.FindAllStringSubmatch(string(raw), -1) {
			if prev, dup := found[m[1]]; dup && prev != pkg {
				return fmt.Errorf("benchmark %s declared in both %s and %s", m[1], prev, pkg)
			}
			found[m[1]] = pkg
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return found, nil
}

// Check validates the registry against the repo's actual benchmarks:
// every discovered Benchmark function must be registered or excluded
// (with a reason), every registered/excluded name must still exist in
// the declared package, and nothing may be both. It returns every
// violation, not just the first.
func (s *Suite) Check(repo map[string]string) []error {
	var errs []error
	registered := map[string]*Entry{}
	for i := range s.Entries {
		e := &s.Entries[i]
		if _, dup := registered[e.Name]; dup {
			errs = append(errs, fmt.Errorf("%s registered twice", e.Name))
		}
		registered[e.Name] = e
	}
	excluded := map[string]*Exclusion{}
	for i := range s.Excluded {
		x := &s.Excluded[i]
		if x.Reason == "" {
			errs = append(errs, fmt.Errorf("exclusion %s has no reason", x.Name))
		}
		if _, dup := excluded[x.Name]; dup {
			errs = append(errs, fmt.Errorf("%s excluded twice", x.Name))
		}
		if _, both := registered[x.Name]; both {
			errs = append(errs, fmt.Errorf("%s is both registered and excluded", x.Name))
		}
		excluded[x.Name] = x
	}
	var names []string
	for name := range repo {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pkg := repo[name]
		switch {
		case registered[name] != nil:
			if registered[name].Package != pkg {
				errs = append(errs, fmt.Errorf("%s is registered in package %s but declared in %s",
					name, registered[name].Package, pkg))
			}
		case excluded[name] != nil:
			if excluded[name].Package != pkg {
				errs = append(errs, fmt.Errorf("%s is excluded for package %s but declared in %s",
					name, excluded[name].Package, pkg))
			}
		default:
			errs = append(errs, fmt.Errorf(
				"%s (in %s) is neither in the perfvc suite registry nor explicitly excluded — register it in internal/perfvc/suite.go or exclude it with a reason",
				name, pkg))
		}
	}
	for name, e := range registered {
		if repo[name] == "" {
			errs = append(errs, fmt.Errorf("registered benchmark %s (package %s) no longer exists", name, e.Package))
		}
	}
	for name, x := range excluded {
		if repo[name] == "" {
			errs = append(errs, fmt.Errorf("excluded benchmark %s (package %s) no longer exists — drop the stale exclusion", name, x.Package))
		}
	}
	return errs
}
