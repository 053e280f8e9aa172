// Command attacklog narrates one exploit campaign presentation by
// presentation: outcomes, failure sites, case states, candidate
// invariants, correlations, and the score of every candidate repair. It is
// the debugging lens behind the Table 1/Table 3 numbers.
//
//	attacklog 290162
package main

import (
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/redteam"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: attacklog <bugzilla-or-class-id>")
		os.Exit(2)
	}
	if err := run(os.Stdout, os.Args[1]); err != nil {
		fmt.Fprintln(os.Stderr, "attacklog:", err)
		os.Exit(1)
	}
}

// run narrates the campaign for one exploit id to w; it is the whole
// command behind the argument parsing, so the golden tests drive it
// directly.
func run(w io.Writer, id string) error {
	scope := 1
	expanded := false
	var ex redteam.Exploit
	found := false
	for _, e := range redteam.AllExploits() {
		if e.Bugzilla == id {
			ex = e
			scope = e.NeedsStackScope
			expanded = e.NeedsExpandedCorpus
			found = true
		}
	}
	if !found {
		return fmt.Errorf("unknown exploit %q", id)
	}
	setup, err := redteam.NewSetup(expanded)
	if err != nil {
		return err
	}
	cv, err := setup.ClearView(scope)
	if err != nil {
		return err
	}
	label := func(pc uint32) string {
		var best string
		var bestAddr uint32
		for name, addr := range setup.App.Labels {
			if addr > pc {
				continue
			}
			// Deterministic winner: closest label, lexicographically first
			// among labels sharing an address (map order must not leak).
			if addr > bestAddr || best == "" || (addr == bestAddr && name < best) {
				bestAddr, best = addr, name
			}
		}
		return fmt.Sprintf("%s+%d", best, pc-bestAddr)
	}
	for i := 1; i <= 16; i++ {
		res := cv.Execute(redteam.AttackInput(setup.App, ex, 0))
		fmt.Fprintf(w, "pres %2d: %v exit=%d", i, res.Outcome, res.ExitCode)
		if res.Failure != nil {
			fmt.Fprintf(w, " at %s (%s)", label(res.Failure.PC), res.Failure.Monitor)
		}
		if res.Crash != nil {
			fmt.Fprintf(w, " crash at %s: %s", label(res.Crash.PC), res.Crash.Reason)
		}
		fmt.Fprintln(w)
		for _, fc := range cv.Cases() {
			fmt.Fprintf(w, "   case %s state=%v cands=%d repairs=%d current=%s unsucc=%d\n",
				label(fc.PC), fc.State, fc.Metrics.CandidateCount, fc.Metrics.RepairCount,
				fc.CurrentRepairID(), fc.Metrics.Unsuccessful)
			if fc.State == core.StateEvaluating || (fc.State == core.StatePatched && i < 20) {
				for _, e := range fc.Evaluator.Entries() {
					fmt.Fprintf(w, "      repair %-60s s=%d f=%d\n", e.ID, e.Successes, e.Failures)
				}
			}
			if i == 1 {
				for _, c := range fc.Candidates {
					fmt.Fprintf(w, "      cand d%d %-60s\n", c.Depth, c.Inv)
				}
			}
			if fc.Correlations != nil {
				ids := make([]string, 0, len(fc.Correlations))
				for id := range fc.Correlations {
					ids = append(ids, id)
				}
				sort.Strings(ids)
				for _, id := range ids {
					fmt.Fprintf(w, "      corr %-60s %v\n", id, fc.Correlations[id])
				}
			}
		}
		if res.Outcome == 0 && res.ExitCode == 0 { // normal exit
			break
		}
	}
	return nil
}
