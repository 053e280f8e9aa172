// Command replay demonstrates the record/replay patch-evaluation farm:
// it records a Red Team exploit failing against the protected webapp,
// replays the recording under the checking patches to classify correlated
// invariants, judges every candidate repair against the recording in
// parallel, and prints the ranked-patch table — all from one failing
// execution, before any repair is deployed live.
//
//	replay -exploit 290162                 record, farm-evaluate, rank
//	replay -exploit 311710 -workers 4      bound the farm's parallelism
//	replay -exploit 290162 -confirm        also run the live confirmation
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/evaluate"
	"repro/internal/obs"
	"repro/internal/redteam"
	"repro/internal/replay"
	"repro/internal/vm"
)

func main() {
	exploitID := flag.String("exploit", "290162", "Bugzilla id of the exploit to record")
	workers := flag.Int("workers", 0, "farm workers (0 = all CPUs)")
	deadline := flag.Duration("deadline", 0, "wall-clock deadline per candidate replay (0 = unbounded)")
	confirm := flag.Bool("confirm", false, "deploy the winning repair and confirm it survives a live presentation")
	profile := flag.Bool("profile", false, "trace pipeline stages and print the per-stage wall/on-CPU/blocked table")
	flag.Parse()

	if err := run(*exploitID, *workers, *deadline, *confirm, *profile); err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

func run(exploitID string, workers int, deadline time.Duration, confirm, profile bool) error {
	var ex redteam.Exploit
	found := false
	for _, e := range redteam.AllExploits() {
		if e.Bugzilla == exploitID {
			ex, found = e, true
		}
	}
	if !found {
		return fmt.Errorf("unknown exploit %q", exploitID)
	}
	if !ex.Repairable {
		return fmt.Errorf("exploit %s is not repairable (it has no recording-farm story to tell)", ex.Bugzilla)
	}

	fmt.Printf("building webapp and learning invariants (expanded corpus: %v)...\n", ex.NeedsExpandedCorpus)
	setup, err := redteam.NewSetup(ex.NeedsExpandedCorpus)
	if err != nil {
		return err
	}

	// Record the failing presentation.
	recStart := time.Now()
	rec, res, err := redteam.RecordAttack(setup, ex, 0)
	if err != nil {
		return err
	}
	if res.Failure == nil {
		return fmt.Errorf("attack did not fail under the monitors: %+v", res)
	}
	raw, err := rec.Marshal()
	if err != nil {
		return err
	}
	fmt.Printf("\nrecorded failing run in %v:\n", time.Since(recStart).Round(time.Microsecond))
	fmt.Printf("  failure    %s at %#x (%s)\n", rec.Failure.Monitor, rec.Failure.PC, rec.Failure.Kind)
	fmt.Printf("  steps      %d\n", rec.Steps)
	fmt.Printf("  wire size  %d bytes (gob)\n", len(raw))

	// Let the pipeline fast-path the whole case off this one presentation.
	var reg *obs.Registry
	var tr *obs.Tracer
	if profile {
		reg = obs.New()
		tr = obs.NewTracer(reg).WithPprofLabels()
	}
	cv, err := core.New(core.Config{
		Image:      setup.App.Image,
		Invariants: setup.DB,
		StackScope: ex.NeedsStackScope,
		Monitors:   replay.AllMonitors(),
		Obs:        tr,
		Replay:     &core.ReplayConfig{Workers: workers, Deadline: deadline},
	})
	if err != nil {
		return err
	}
	attack := redteam.AttackInput(setup.App, ex, 0)
	farmStart := time.Now()
	first := cv.Execute(attack)
	if first.Outcome != vm.OutcomeFailure {
		return fmt.Errorf("presentation 1 was not monitor-detected: %+v", first)
	}
	fc := cv.Cases()[0]
	fmt.Printf("\npipeline fast path (%v wall clock):\n", time.Since(farmStart).Round(time.Microsecond))
	fmt.Printf("  candidate invariants  %d\n", fc.Metrics.CandidateCount)
	fmt.Printf("  candidate repairs     %d\n", fc.Metrics.RepairCount)
	fmt.Printf("  offline replays       %d (%d discarded candidates)\n",
		fc.Metrics.ReplayRuns, fc.Metrics.ReplayDiscards)
	fmt.Printf("  case state            %s\n", fc.State)

	if fc.Evaluator == nil {
		return fmt.Errorf("no evaluator: case ended %v", fc.State)
	}

	// The ranked-patch table, exactly as the evaluator would deploy them.
	fmt.Printf("\nranked candidate repairs for %s:\n", fc.ID)
	writeRankedTable(os.Stdout, fc.Evaluator, fc.Current)

	if confirm {
		second := cv.Execute(attack)
		if second.Outcome != vm.OutcomeExit || second.ExitCode != 0 {
			return fmt.Errorf("live confirmation failed: %+v", second)
		}
		fmt.Printf("\nlive confirmation: attack survived under %s after 2 presentations (state %s)\n",
			fc.CurrentRepairID(), fc.State)
	}

	if reg != nil {
		snap := reg.Snapshot()
		fmt.Printf("\n%s", obs.FormatStageTable(&snap))
	}
	return nil
}

// writeRankedTable renders the ranked-candidate table: one row per
// repair in deployment order, the deployed candidate starred. The
// rendering is timing-free so it is byte-stable for a given evaluator
// state (see the golden test).
func writeRankedTable(w io.Writer, ev *evaluate.Evaluator, current *evaluate.Entry) {
	fmt.Fprintf(w, "  %-4s %-52s %8s %5s %5s\n", "rank", "repair", "score", "s", "f")
	for i, e := range ev.Ranked() {
		marker := " "
		if current != nil && e == current {
			marker = "*"
		}
		fmt.Fprintf(w, "  %s%-3d %-52s %8d %5d %5d\n",
			marker, i+1, e.ID, e.Score(ev.Bonus), e.Successes, e.Failures)
	}
	fmt.Fprintln(w, "  (* = deployed for the next live execution)")
}
