// Command perfvc is the repo's performance version system (Perun-style):
// it records per-PR benchmark profiles with repeated samples and honest
// error bars, compares them with noise-aware verdicts, and gates CI on
// regression.
//
//	perfvc record -pr 8 -title "..." -out BENCH_pr8.json   full suite, 5 samples
//	perfvc compare -baseline BENCH_pr7.json -candidate new.json
//	perfvc ci                                              short samples vs latest BENCH_pr*.json
//
// `record` runs the canonical suite (internal/perfvc's registry: the
// root paper tables, internal/vm dispatch, internal/mem, and the
// community soak arm) with -count samples per benchmark and writes a
// BENCH_prN.json carrying the established meta block (pr, date, cpu, go
// version, regenerate commands) and per-benchmark median/min/max.
//
// `compare` classifies every benchmark of two profiles as regression /
// improvement / within-noise / new / removed: a change only leaves the
// noise when the candidate median exits the baseline's [min, max] band
// by more than max(class tolerance × baseline median, the baseline's own
// min–max spread). Exit status 1 on any regression.
//
// `ci` runs the suite at short CI benchtimes, compares against the
// latest committed BENCH_pr*.json with a generous tolerance floor (the
// shared single-core runner), prints the ranked verdict table, and exits
// nonzero naming the offending benchmarks on regression. -candidate
// skips the run and gates a pre-recorded profile instead.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/perfvc"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: perfvc {record|compare|ci} [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = runRecord(parseRecordFlags(os.Args[2:]))
	case "compare":
		err = runCompare(parseCompareFlags(os.Args[2:]), os.Stdout)
	case "ci":
		err = runCI(parseCIFlags(os.Args[2:]), os.Stdout)
	default:
		err = fmt.Errorf("unknown subcommand %q (want record, compare, or ci)", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfvc:", err)
		os.Exit(1)
	}
}

// recordFlags carries the `perfvc record` command line.
type recordFlags struct {
	pr          int
	title, note string
	out, dir    string
	count       int
}

func parseRecordFlags(args []string) recordFlags {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	f := recordFlags{}
	fs.IntVar(&f.pr, "pr", 0, "PR number the profile is the baseline for (required)")
	fs.StringVar(&f.title, "title", "", "one-line description of the PR")
	fs.StringVar(&f.note, "note", "", "methodology caveats for the meta block")
	fs.StringVar(&f.out, "out", "", "output path (default BENCH_pr<pr>.json)")
	fs.StringVar(&f.dir, "dir", ".", "repo root to run the suite in")
	fs.IntVar(&f.count, "count", 5, "samples per benchmark (>= 3 for a committed baseline)")
	fs.Parse(args)
	return f
}

// runRecord runs the full suite and writes the profile.
func runRecord(f recordFlags) error {
	if f.pr <= 0 {
		return fmt.Errorf("record: -pr is required")
	}
	if f.out == "" {
		f.out = fmt.Sprintf("BENCH_pr%d.json", f.pr)
	}
	runner := &perfvc.Runner{Dir: f.dir, Count: f.count, Log: os.Stderr}
	profile, commands, err := runner.Run(perfvc.Registry())
	if err != nil {
		return err
	}
	profile.Meta.PR = f.pr
	profile.Meta.Title = f.title
	profile.Meta.Note = f.note
	profile.Meta.Date = time.Now().UTC().Format("2006-01-02")
	profile.Meta.Go = runtime.Version()
	profile.Meta.GOMAXPROCS = runtime.GOMAXPROCS(0)
	profile.Meta.NumCPU = runtime.NumCPU()
	if profile.Meta.CPU == "" {
		profile.Meta.CPU = "unknown"
	}
	profile.Meta.Regenerate = append(
		[]string{fmt.Sprintf("go run ./cmd/perfvc record -pr %d -count %d -out %s", f.pr, f.count, f.out)},
		commands...)
	if err := profile.Validate(3); err != nil {
		return fmt.Errorf("recorded profile fails the baseline contract: %w", err)
	}
	if err := perfvc.Save(f.out, profile); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfvc: wrote %s (%d benchmarks, %d samples each)\n",
		f.out, len(profile.Benchmarks), f.count)
	return nil
}

// compareFlags carries the `perfvc compare` command line.
type compareFlags struct {
	baseline, candidate string
	floor               float64
}

func parseCompareFlags(args []string) compareFlags {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	f := compareFlags{}
	fs.StringVar(&f.baseline, "baseline", "", "baseline profile (required)")
	fs.StringVar(&f.candidate, "candidate", "", "candidate profile (required)")
	fs.Float64Var(&f.floor, "tolerance-floor", 0, "raise every class tolerance to at least this")
	fs.Parse(args)
	return f
}

// runCompare gates one recorded profile against another.
func runCompare(f compareFlags, w io.Writer) error {
	if f.baseline == "" || f.candidate == "" {
		return fmt.Errorf("compare: -baseline and -candidate are required")
	}
	base, err := perfvc.Load(f.baseline)
	if err != nil {
		return err
	}
	cand, err := perfvc.Load(f.candidate)
	if err != nil {
		return err
	}
	rep := perfvc.Compare(base, cand, perfvc.Options{ToleranceFloor: f.floor})
	fmt.Fprintf(w, "baseline %s (pr %d) vs candidate %s\n\n", f.baseline, base.Meta.PR, f.candidate)
	fmt.Fprint(w, rep.Table())
	return rep.Err()
}

// ciFlags carries the `perfvc ci` command line.
type ciFlags struct {
	dir          string
	baseline     string
	candidate    string
	candidateOut string
	count        int
	floor        float64
}

func parseCIFlags(args []string) ciFlags {
	fs := flag.NewFlagSet("ci", flag.ExitOnError)
	f := ciFlags{}
	fs.StringVar(&f.dir, "dir", ".", "repo root holding the committed BENCH_pr*.json lineage")
	fs.StringVar(&f.baseline, "baseline", "", "baseline profile (default: latest committed BENCH_pr*.json)")
	fs.StringVar(&f.candidate, "candidate", "", "pre-recorded candidate profile (default: run the CI suite)")
	fs.StringVar(&f.candidateOut, "candidate-out", "", "write the candidate profile here (CI uploads it on failure)")
	fs.IntVar(&f.count, "count", 2, "samples per benchmark for the CI run")
	fs.Float64Var(&f.floor, "tolerance-floor", 0.75, "generous tolerance for the shared 1-core CI runner")
	fs.Parse(args)
	return f
}

// runCI is the CI gate: fresh short-sample run (or -candidate) against
// the latest committed baseline; nonzero on regression.
func runCI(f ciFlags, w io.Writer) error {
	var base *perfvc.Profile
	var basePath string
	var err error
	if f.baseline != "" {
		basePath = f.baseline
		base, err = perfvc.Load(basePath)
	} else {
		base, basePath, err = perfvc.LatestBaseline(f.dir)
	}
	if err != nil {
		return err
	}
	suite := perfvc.Registry()
	var cand *perfvc.Profile
	if f.candidate != "" {
		cand, err = perfvc.Load(f.candidate)
		if err != nil {
			return err
		}
	} else {
		runner := &perfvc.Runner{Dir: f.dir, Count: f.count, CI: true, Log: os.Stderr}
		cand, _, err = runner.Run(suite)
		if err != nil {
			return err
		}
		cand.Meta.PR = base.Meta.PR
		cand.Meta.Title = "ci candidate"
		cand.Meta.Date = time.Now().UTC().Format("2006-01-02")
		cand.Meta.Go = runtime.Version()
		cand.Meta.Regenerate = []string{"go run ./cmd/perfvc ci"}
		if cand.Meta.CPU == "" {
			cand.Meta.CPU = "unknown"
		}
	}
	if f.candidateOut != "" {
		if err := perfvc.Save(f.candidateOut, cand); err != nil {
			return err
		}
	}
	rep := perfvc.Compare(base, cand, perfvc.Options{
		ToleranceFloor: f.floor,
		Scope:          suite.Scope(),
	})
	fmt.Fprintf(w, "perfvc ci: baseline %s (pr %d), tolerance floor %.0f%%\n\n",
		basePath, base.Meta.PR, 100*f.floor)
	fmt.Fprint(w, rep.Table())
	return rep.Err()
}
