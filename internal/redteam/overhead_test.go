package redteam

import (
	"testing"

	"repro/internal/vm"
)

// TestTable2ConfigsLoadFromDecodeTable: the seven Table 2 rows load every
// evaluation page cleanly, only the last row deploys a repair, and every
// block of every page is built from the image's decode table. No
// evaluation page writes code or jumps between instruction slots, so a
// single block decoded from guest memory means the shared decode stopped
// serving the workload Table 2 prices.
func TestTable2ConfigsLoadFromDecodeTable(t *testing.T) {
	s := getSetup(t, false)
	configs, err := Table2Configs(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 7 {
		t.Fatalf("%d Table 2 rows, want 7", len(configs))
	}
	for i, c := range configs {
		if patched := len(c.Patches) > 0; patched != (i == len(configs)-1) {
			t.Errorf("row %q: patched = %v", c.Name, patched)
		}
	}
	pages := EvaluationPages()
	for i := range configs {
		c := &configs[i]
		blocks := 0
		for p, page := range pages {
			machine, err := c.machine(s.App, page)
			if err != nil {
				t.Fatal(err)
			}
			res := machine.Run()
			if res.Outcome != vm.OutcomeExit || res.ExitCode != 0 {
				t.Fatalf("%s: page %d: %v (exit %d)", c.Name, p, res.Outcome, res.ExitCode)
			}
			if n := machine.GuestDecodes(); n != 0 {
				t.Errorf("%s: page %d decoded %d of %d blocks from guest memory, want 0", c.Name, p, n, res.Blocks)
			}
			blocks += res.Blocks
		}
		if blocks == 0 {
			t.Errorf("%s: no blocks decoded", c.Name)
		}
	}
}
