package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

// setUpOnce prepares a workload's inputs and runs its set-up once.
func setUpOnce(t *testing.T, prepare func() (func(*tracer) (env, error), error)) env {
	t.Helper()
	setUp, err := prepare()
	if err != nil {
		t.Fatal(err)
	}
	e, err := setUp(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.references(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPageCheckFires: a page whose output differs from the bare
// application's by one byte is a failed op.
func TestPageCheckFires(t *testing.T) {
	p := setUpOnce(t, preparePageload).(*pageEnv)
	if _, err := p.op(0, nil); err != nil {
		t.Fatalf("unmutated page failed its check: %v", err)
	}
	mutated := bytes.Clone(p.want[0])
	mutated[len(mutated)/2] ^= 0xff
	p.want[0] = mutated
	if _, err := p.op(0, nil); err == nil {
		t.Fatal("a mutated page output passed the check")
	}
}

// TestCampaignCheckFires: a campaign that patches, but not on its pinned
// presentation, is a failed op.
func TestCampaignCheckFires(t *testing.T) {
	r := setUpOnce(t, prepareRepair).(*repairEnv)
	i := slices.IndexFunc(r.cases, func(c repairCase) bool { return c.ex.Bugzilla == "290162" })
	if _, err := r.op(i, nil); err != nil {
		t.Fatalf("campaign failed at its pinned count: %v", err)
	}
	r.cases[i].pinned--
	if _, err := r.op(i, nil); err == nil || !strings.Contains(err.Error(), "pinned") {
		t.Fatalf("a campaign off its pinned count passed the check: %v", err)
	}
}

// TestCommunityCheckFires: a one-round campaign cannot converge and is a
// failed op.
func TestCommunityCheckFires(t *testing.T) {
	c := setUpOnce(t, prepareCommunity).(*commEnv)
	c.confs = c.confs[:1]
	c.confs[0].Rounds = 1
	if _, err := c.op(0, nil); err == nil || !strings.Contains(err.Error(), "converge") {
		t.Fatalf("a one-round campaign passed the check: %v", err)
	}
}

// TestResultNamesMatchBenchmarkJSON runs each mode briefly and requires the
// last line to carry exactly the metrics BENCHMARK.json declares.
func TestResultNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
		var out, errs bytes.Buffer
		args := []string{"--workload", "pageload", "--seconds", "0.01", "--trace", []string{"0", "1"}[trace]}
		if code := run(args, &out, &errs); code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, errs.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("trace %d: %+v", trace, res)
		}
		var got, names []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, m := range want {
			names = append(names, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(names)
		if !slices.Equal(got, names) {
			t.Errorf("trace %d metrics:\n got %v\nwant %v", trace, got, names)
		}
	}
}

// TestQuartileSpreadMatchesPython pins the spread to
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	median, spread := quartileSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if median != 5.5 || spread != (8.25-2.75)/5.5 {
		t.Fatalf("median %v spread %v", median, spread)
	}
}
