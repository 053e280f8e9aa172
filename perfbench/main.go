// Command perfbench is the repository benchmark. It runs one of the
// paper's three evaluation workloads against the public APIs of the
// ClearView reproduction, checks every output, and prints the metrics as
// one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload pageload --seed 1 --seconds 30 --trace 0
//
// Each workload is a closed loop with one client. A pass runs every input
// of the workload exactly once, in an order the seed shuffles, and a run
// ends on a whole pass once --seconds have elapsed:
//
//	pageload   Table 2 (§4.4.2): one op loads one of the 57 evaluation
//	           pages on a fresh machine under every detector with the
//	           adopted 290162 repair installed; the output must equal the
//	           bare application's (§4.3.6).
//	repair     Table 1 (§4.3): one op is a Red Team campaign against a fresh
//	           ClearView until it patches; a pass covers the 12 repairable
//	           exploits, each patched in its pinned number of presentations.
//	community  §3: one op is a simulated community campaign; it must
//	           converge with every adversary quarantined.
//
// Set-up is the program's one-time work before the first op: assembling
// the image and learning the invariant database(s), plus adopting the
// 290162 repair on pageload. setup_s is the median of several set-ups
// from scratch, each after a forced GC.
//
// --trace 0 prints the end-to-end metrics. --trace 1 first repeats an
// untraced window, then times every layer from the benchmark's side of
// each public call, reads the counters the program exports, and prints
// the per-layer metrics and the tracing overhead (plus a layer table on
// standard error). --steady N repeats the run in child processes on two
// seeds and prints each metric's median and quartile spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed for the op order within each pass")
	seconds := fs.Float64("seconds", 30, "how long the measured window runs")
	traced := fs.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	steady := fs.Int("steady", 0, "repeat the run this many times per seed in child processes and print each metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if *steady > 0 {
		return steadiness(*steady, *name, *seed, *seconds, *traced, stdout, stderr)
	}
	window := time.Duration(*seconds * float64(time.Second))

	meta := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu": cpuModel(), "go": runtime.Version(),
	}
	var res result
	var err error
	if *traced == 1 {
		res, err = measureLayers(w, *seed, window, meta, stderr)
	} else {
		res, err = measureEndToEnd(w, *seed, window, meta, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// cpuModel names the processor, for the record that goes with each result.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
