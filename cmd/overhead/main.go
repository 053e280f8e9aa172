// Command overhead regenerates the performance measurements of §4.4:
// Table 2 (page-load overhead under the monitor configurations) and the
// §4.4.1 learning overhead.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/redteam"
	"repro/internal/webapp"
)

func main() {
	repeats := flag.Int("repeats", 5, "workload repetitions per configuration")
	learning := flag.Bool("learning", false, "measure §4.4.1 learning overhead instead of Table 2")
	flag.Parse()

	if *learning {
		app, err := webapp.Build()
		if err != nil {
			fmt.Fprintln(os.Stderr, "overhead:", err)
			os.Exit(1)
		}
		lo, err := redteam.MeasureLearningOverhead(app, *repeats)
		if err != nil {
			fmt.Fprintln(os.Stderr, "overhead:", err)
			os.Exit(1)
		}
		fmt.Println("§4.4.1 learning overhead (twelve-page corpus):")
		fmt.Printf("  without learning: %v\n", lo.BareWall)
		fmt.Printf("  with learning:    %v (%.1fx)\n", lo.LearnWall, lo.Ratio)
		fmt.Printf("  trace entries:    %d\n", lo.Observations)
		fmt.Printf("  invariants:       %d\n", lo.Invariants)
		return
	}

	setup, err := redteam.NewSetup(false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "overhead:", err)
		os.Exit(1)
	}
	rows, err := redteam.MeasureOverheadWithPatch(setup, *repeats)
	if err != nil {
		fmt.Fprintln(os.Stderr, "overhead:", err)
		os.Exit(1)
	}
	fmt.Println("Table 2: page-load cost of the 57 evaluation pages per configuration")
	fmt.Println("(unmonitored = bare; monitored = monitor rows; patched = last row)")
	redteam.PrintTable2(os.Stdout, rows)
}
