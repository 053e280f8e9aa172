package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/correlate"
)

// Report renders the maintainer-facing defect report the paper describes
// in §1: the failure location, the correlated invariants, the enforcement
// strategy of each candidate repair patch, and each patch's observed
// effectiveness. The intent is to help maintainers "more quickly
// understand and eliminate the corresponding defect" while the automatic
// patch keeps the application in service.
func (c *FailureCase) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Failure %s\n", c.ID)
	fmt.Fprintf(&b, "  location: %#x\n", c.PC)
	fmt.Fprintf(&b, "  status:   %s", c.State)
	if c.Current != nil {
		fmt.Fprintf(&b, " (deployed: %s)", c.Current.ID)
	}
	b.WriteString("\n")
	if len(c.Stack) > 0 {
		fmt.Fprintf(&b, "  call stack (return sites, innermost first):")
		for _, ret := range c.Stack {
			fmt.Fprintf(&b, " %#x", ret)
		}
		b.WriteString("\n")
	}

	if len(c.Correlations) > 0 {
		b.WriteString("  correlated invariants:\n")
		ids := make([]string, 0, len(c.Correlations))
		for id := range c.Correlations {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			corr := c.Correlations[id]
			if corr < correlate.SlightlyCorrelated {
				continue
			}
			inv := findInvariant(c.Candidates, id)
			fmt.Fprintf(&b, "    [%-10s] %s\n", corr, inv)
		}
	}

	if c.Evaluator != nil && c.Evaluator.Len() > 0 {
		b.WriteString("  candidate repairs (strategy, successes, failures):\n")
		for _, e := range c.Evaluator.Entries() {
			marker := " "
			if c.Current != nil && e == c.Current {
				marker = "*"
			}
			fmt.Fprintf(&b, "   %s %-56s s=%d f=%d\n", marker, e.ID, e.Successes, e.Failures)
		}
	}
	fmt.Fprintf(&b, "  checks executed: %d (%d violations); unsuccessful repair runs: %d\n",
		c.Metrics.CheckExecs, c.Metrics.CheckViolations, c.Metrics.Unsuccessful)
	return b.String()
}

func findInvariant(cands []correlate.Candidate, id string) string {
	for _, c := range cands {
		if c.Inv.ID() == id {
			return c.Inv.String()
		}
	}
	return id
}
