package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// requiredStages is every pipeline stage a hierarchical soak with
// adversaries, churn, and a recorder must report — the per-stage table's
// contract. The names map onto the paper's pipeline; see ARCHITECTURE.md.
var requiredStages = []string{
	"detect", "record", "record.seal", "vet", "farm", "correlate",
	"learn", "evaluate", "adopt",
	"mgr.handle", "agg.handle", "flush", "node.execute", "node.sync",
}

// smokeFlags is the shared small-but-full-featured soak shape: two
// aggregators, a spoofing and a forging adversary, churn, one recorder.
func smokeFlags(t *testing.T) soakFlags {
	t.Helper()
	return soakFlags{
		nodes: 24, aggregators: 2, rounds: 4,
		exploits: "290162,div-zero", batch: true, recorders: 1,
		adversaries: 2, churn: true, crashPerRound: 1, joinPerRound: 1,
		metricsPath: filepath.Join(t.TempDir(), "metrics.json"),
		parallel:    true,
	}
}

// checkSnapshotFile parses a -metrics file and asserts the telemetry
// contract: valid JSON, every required stage present with at least one
// span, and no registered stage silently idle.
func checkSnapshotFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading metrics file: %v", err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	for _, name := range requiredStages {
		st := snap.Stage(name)
		if st == nil {
			t.Errorf("stage %q missing from metrics", name)
		} else if st.Spans == 0 {
			t.Errorf("stage %q reports zero samples", name)
		}
	}
	for i := range snap.Stages {
		if snap.Stages[i].Spans == 0 {
			t.Errorf("registered stage %q reports zero samples", snap.Stages[i].Name)
		}
	}
}

// TestSoakSmokeMetrics runs the soak in-process with telemetry armed and
// asserts the -metrics contract end to end.
func TestSoakSmokeMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("soak smoke skipped in -short mode")
	}
	f := smokeFlags(t)
	if err := run(f); err != nil {
		t.Fatalf("soak failed: %v", err)
	}
	checkSnapshotFile(t, f.metricsPath)
}

// TestChaosSoakSmoke is the CI chaos gate: the smoke-shaped soak with the
// seeded fault schedule armed — transport drops, delays, duplicates,
// mid-flush disconnects, partition windows, a replicated root, and a
// leader crash mid-campaign. It must converge (run returns nil), and the
// metrics snapshot must prove the faults actually fired and were
// absorbed: nonzero chaos, retry, reconnect, and failover counters.
func TestChaosSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("soak smoke skipped in -short mode")
	}
	f := smokeFlags(t)
	f.chaos = true
	f.seed = 1
	if err := run(f); err != nil {
		t.Fatalf("chaos soak failed: %v", err)
	}
	checkSnapshotFile(t, f.metricsPath)

	data, err := os.ReadFile(f.metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"chaos.dropped", "node.retries", "node.reconnects",
		"root.failovers", "root.log_entries",
	} {
		if snap.Counter(name) == 0 {
			t.Errorf("counter %q is zero; the chaos run proved nothing", name)
		}
	}
	if got := snap.Counter("root.failovers"); got != 1 {
		t.Errorf("root.failovers = %d, want exactly 1", got)
	}
}

// TestSoakFailureExitsNonzeroWithPartialMetrics pins the failure
// contract: a soak that cannot converge must report an error (main turns
// it into a nonzero exit) AND still write the telemetry it gathered — a
// failed run without its partial metrics is undiagnosable.
func TestSoakFailureExitsNonzeroWithPartialMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("soak smoke skipped in -short mode")
	}
	f := smokeFlags(t)
	// One round cannot converge: adoption needs a second presentation.
	f.rounds = 1
	f.churn = false
	err := run(f)
	if err == nil {
		t.Fatal("one-round soak reported success; want a convergence error")
	}
	if !strings.Contains(err.Error(), "converge") {
		t.Fatalf("unexpected soak error: %v", err)
	}
	data, readErr := os.ReadFile(f.metricsPath)
	if readErr != nil {
		t.Fatalf("failed soak wrote no metrics: %v", readErr)
	}
	var snap obs.Snapshot
	if jsonErr := json.Unmarshal(data, &snap); jsonErr != nil {
		t.Fatalf("partial metrics are not valid JSON: %v", jsonErr)
	}
	if st := snap.Stage("node.execute"); st == nil || st.Spans == 0 {
		t.Error("partial metrics carry no node.execute samples")
	}
}

// TestMetricsFileStages lets CI assert an externally produced -metrics
// file (SOAK_METRICS_FILE) without re-running the soak. Skipped when the
// variable is unset.
func TestMetricsFileStages(t *testing.T) {
	path := os.Getenv("SOAK_METRICS_FILE")
	if path == "" {
		t.Skip("SOAK_METRICS_FILE not set")
	}
	checkSnapshotFile(t, path)
}

// checkSimSnapshotFile layers the simulated soak's counters on the
// shared telemetry contract: schedule steps, member turns and memoized
// executions must all be nonzero.
func checkSimSnapshotFile(t *testing.T, path string) {
	t.Helper()
	checkSnapshotFile(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sim.events", "sim.turns", "sim.memo_hits"} {
		if snap.Counter(name) == 0 {
			t.Errorf("counter %q is zero; the sim run proved nothing", name)
		}
	}
}

// TestSimSoakSmokeMetrics runs the smoke-shaped soak simulated (-sim)
// and asserts the same telemetry contract plus the simulated soak's own
// counters.
func TestSimSoakSmokeMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("soak smoke skipped in -short mode")
	}
	f := smokeFlags(t)
	f.sim = true
	if err := run(f); err != nil {
		t.Fatalf("sim soak failed: %v", err)
	}
	checkSimSnapshotFile(t, f.metricsPath)
}

// TestSimMetricsFileStages lets CI assert the -metrics snapshot from an
// externally run `soak -sim` (SIM_METRICS_FILE) without re-running it —
// the sim-soak smoke gate parses its own 10k-node run through this.
// Skipped when the variable is unset.
func TestSimMetricsFileStages(t *testing.T) {
	path := os.Getenv("SIM_METRICS_FILE")
	if path == "" {
		t.Skip("SIM_METRICS_FILE not set")
	}
	checkSimSnapshotFile(t, path)
}
