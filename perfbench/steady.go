package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"text/tabwriter"
)

// steadiness runs the benchmark n times on the given seed and n times on
// the next one, each in a fresh process, and prints every metric's median
// and quartile spread per seed and over all runs. The bounds in
// BENCHMARK.json and the tail percentile of each workload were chosen from
// its output.
func steadiness(n int, name string, seed uint64, seconds float64, traced int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	seeds := []uint64{seed, seed + 1}
	values := map[string][][]float64{} // metric -> per-seed values
	units := map[string]string{}
	for si, s := range seeds {
		for i := 0; i < n; i++ {
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traced))
			var errBuf bytes.Buffer
			cmd.Stderr = &errBuf
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: run %d on seed %d: %v\n%s", i, s, err, errBuf.Bytes())
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				fmt.Fprintf(stderr, "perfbench: run %d on seed %d: %v\n", i, s, err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(stderr, "perfbench: run %d on seed %d: %d of %d ops failed\n", i, s, res.Failed, res.Attempted)
				return 1
			}
			for k, m := range res.Metrics {
				if values[k] == nil {
					values[k] = make([][]float64, len(seeds))
				}
				values[k][si] = append(values[k][si], m.Value)
				units[k] = m.Unit
			}
		}
	}

	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s, %d runs per seed\tunit\tseed %d median\tspread\tseed %d median\tspread\tall median\tspread\n",
		name, n, seeds[0], seeds[1])
	for _, k := range names {
		fmt.Fprintf(tw, "%s\t%s", k, units[k])
		var all []float64
		for _, v := range values[k] {
			med, spread := quartileSpread(v)
			fmt.Fprintf(tw, "\t%.6g\t%.1f%%", med, spread*100)
			all = append(all, v...)
		}
		med, spread := quartileSpread(all)
		fmt.Fprintf(tw, "\t%.6g\t%.1f%%\n", med, spread*100)
	}
	if err := tw.Flush(); err != nil {
		return 1
	}
	return 0
}

// quartileSpread returns the median of values and the distance between
// their first and third quartiles as a share of it, with the quartiles
// computed as Python's statistics.quantiles(values, n=4) does.
func quartileSpread(values []float64) (median, spread float64) {
	v := slices.Clone(values)
	slices.Sort(v)
	if len(v) < 2 {
		return v[0], 0
	}
	m := len(v) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(v)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	median = q[1]
	if median == 0 {
		return 0, 0
	}
	return median, (q[2] - q[0]) / median
}
