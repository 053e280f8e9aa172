// Package sim is the scale entry to the community soak: Run drives the
// campaign community.RunSoak drives — one rig, one serial schedule, the
// same SoakReport — over synchronous loopback connections instead of
// pipes with a serving goroutine each, and answers the executions of
// members that share an input and directives from one memoized run. At
// small populations a simulated campaign matches community.RunSoak byte
// for byte (TestSimMatchesGoroutineSoak), and both match the reports
// recorded in testdata (TestSoakReportGolden); at large populations it
// reaches the paper's deployment scale (100k+ nodes) in seconds.
package sim

import "repro/internal/community"

// Report is a simulated campaign's outcome: the SoakReport plus the
// schedule's step count and the execution memo's accounting.
type Report = community.SimReport

// Run simulates the soak campaign conf describes (see
// community.SimulateSoak). The Parallel* soak shapes need real
// concurrency and are rejected.
func Run(conf community.SoakConfig) (*Report, error) {
	return community.SimulateSoak(conf)
}
