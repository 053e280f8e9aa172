// Package perfvc is the repo's performance version system, modeled on
// Perun: per-version performance profiles plus automated, noise-aware
// regression detection. It runs the canonical benchmark suite (declared
// once, in Registry), records a machine-readable BENCH_prN.json profile
// carrying the established meta block and per-benchmark sample
// statistics, and compares two profiles with verdicts that respect both
// a configured relative tolerance and the baseline's own observed sample
// spread — repeated samples and honest error bars, never single-shot
// deltas. cmd/perfvc is the CLI; `perfvc ci` is the CI gate.
package perfvc

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// Meta is the profile header every committed BENCH_pr*.json carries: the
// PR it snapshots, when and on what hardware it was measured, and the
// exact commands that regenerate it. The shape matches the hand-written
// BENCH_pr3.json/BENCH_pr6.json lineage.
type Meta struct {
	// PR is the pull-request number this profile is the baseline for.
	PR int `json:"pr"`
	// Title is a one-line description of the PR the profile snapshots.
	Title string `json:"title,omitempty"`
	// Date is the measurement date, YYYY-MM-DD.
	Date string `json:"date"`
	// CPU is the host CPU model as `go test -bench` reported it.
	CPU string `json:"cpu"`
	// Go is the toolchain version that ran the suite.
	Go string `json:"go"`
	// GOMAXPROCS is the scheduler's processor limit during the run.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// NumCPU is the host's logical CPU count.
	NumCPU int `json:"num_cpu,omitempty"`
	// Note carries methodology caveats a reader needs to compare fairly.
	Note string `json:"note,omitempty"`
	// Regenerate is the exact command sequence that reproduces the
	// profile. Never empty in a committed profile.
	Regenerate []string `json:"regenerate"`
}

// Stat summarizes one metric across a benchmark's repeated samples. Min
// and Max are the honest error bar: a comparison may not call a change a
// regression while the candidate median sits inside [Min, Max] plus
// tolerance.
type Stat struct {
	// Median is the per-sample median (mean of the middle two for even
	// sample counts).
	Median float64 `json:"median"`
	// Min is the smallest sample.
	Min float64 `json:"min"`
	// Max is the largest sample.
	Max float64 `json:"max"`
	// Samples is how many `-count` repetitions produced the statistic.
	Samples int `json:"samples"`
}

// Spread is the observed min–max width — the baseline's own noise floor.
func (s Stat) Spread() float64 { return s.Max - s.Min }

// Bench is one benchmark's profile entry: which package and registry
// entry it came from, and a Stat per reported metric (keyed by the unit
// string `go test -bench` printed: "ns/op", "allocs/op", "MB/s", custom
// ReportMetric units like "MIPS" or "presentations").
type Bench struct {
	// Package is the go package path the benchmark ran in ("." = root).
	Package string `json:"package"`
	// Entry is the registry entry (top-level Benchmark function) that
	// produced this result; sub-benchmarks share their parent's entry.
	Entry string `json:"entry"`
	// Metrics maps a reported unit to its cross-sample statistics.
	Metrics map[string]Stat `json:"metrics"`
}

// Profile is a complete performance snapshot: the meta block plus one
// Bench per benchmark (sub-benchmarks keyed by their full slash path).
type Profile struct {
	// Meta is the provenance header.
	Meta Meta `json:"meta"`
	// Benchmarks maps full benchmark names to their entries.
	Benchmarks map[string]Bench `json:"benchmarks"`
}

// Names returns the profile's benchmark names, sorted.
func (p *Profile) Names() []string {
	names := make([]string, 0, len(p.Benchmarks))
	for n := range p.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Validate checks the committed-profile contract: a meta block with PR,
// date, and non-empty regenerate commands; at least one benchmark; every
// benchmark carrying at least one metric with at least minSamples
// samples and min <= median <= max.
func (p *Profile) Validate(minSamples int) error {
	if p.Meta.PR <= 0 {
		return fmt.Errorf("meta.pr missing")
	}
	if p.Meta.Date == "" {
		return fmt.Errorf("meta.date missing")
	}
	if len(p.Meta.Regenerate) == 0 {
		return fmt.Errorf("meta.regenerate is empty — a profile that cannot be reproduced is not a baseline")
	}
	for _, cmd := range p.Meta.Regenerate {
		if cmd == "" {
			return fmt.Errorf("meta.regenerate contains an empty command")
		}
	}
	if len(p.Benchmarks) == 0 {
		return fmt.Errorf("profile has no benchmarks")
	}
	for _, name := range p.Names() {
		b := p.Benchmarks[name]
		if len(b.Metrics) == 0 {
			return fmt.Errorf("%s has no metrics", name)
		}
		for unit, st := range b.Metrics {
			if st.Samples < minSamples {
				return fmt.Errorf("%s %s has %d samples, want >= %d", name, unit, st.Samples, minSamples)
			}
			if st.Min > st.Median || st.Median > st.Max {
				return fmt.Errorf("%s %s has inconsistent stats min=%v median=%v max=%v",
					name, unit, st.Min, st.Median, st.Max)
			}
		}
	}
	return nil
}

// Load reads and decodes a profile file. It rejects files without a
// "benchmarks" section (the legacy hand-written BENCH shapes) so callers
// get a clear error instead of an empty profile.
func Load(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if p.Benchmarks == nil {
		return nil, fmt.Errorf("%s: no benchmarks section (a legacy hand-written BENCH file? use ConvertLegacy)", path)
	}
	return &p, nil
}

// Save writes the profile as indented JSON (trailing newline, 0644).
func Save(path string, p *Profile) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchFile matches committed baseline file names and captures the PR
// number.
var benchFile = regexp.MustCompile(`^BENCH_pr(\d+)\.json$`)

// LatestBaseline finds the highest-numbered BENCH_pr*.json in dir that
// parses as a full profile (legacy hand-written files are skipped) and
// returns it with its path. This is the baseline `perfvc ci` gates
// against.
func LatestBaseline(dir string) (*Profile, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", err
	}
	best, bestPR := "", -1
	for _, e := range entries {
		m := benchFile.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		pr, _ := strconv.Atoi(m[1])
		if pr <= bestPR {
			continue
		}
		path := filepath.Join(dir, e.Name())
		if _, err := Load(path); err != nil {
			continue // legacy shape — not a machine baseline
		}
		best, bestPR = path, pr
	}
	if best == "" {
		return nil, "", fmt.Errorf("no BENCH_pr*.json in %s parses as a perfvc profile — record one with `perfvc record`", dir)
	}
	p, err := Load(best)
	return p, best, err
}

// aggregate folds per-sample metric values into a Stat.
func aggregate(values []float64) Stat {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	med := sorted[n/2]
	if n%2 == 0 {
		med = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return Stat{Median: med, Min: sorted[0], Max: sorted[n-1], Samples: n}
}
