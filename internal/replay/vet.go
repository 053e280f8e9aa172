package replay

import (
	"fmt"
	"time"

	"repro/internal/vm"
)

// Vet replays the recording exactly as sealed — same image, input, monitor
// set, and deployed patches, no extras — and checks that the reproduced run
// matches the recording's claimed outcome bit for bit: outcome kind, exit
// code, step count, and (for failing runs) the failure location and the
// monitor that fired.
//
// The machine is deterministic, so for an honestly captured recording the
// replay cannot diverge; any mismatch means the claim was fabricated or the
// recording was altered after sealing. This is the community's report-vetting
// primitive (the §5 discussion's "attacker submits a report designed to
// cause ClearView to install a patch that intentionally damages the
// application"): a manager vets foreign recordings on its farm before
// letting them drive the checking or evaluation phases, and quarantines the
// sender on a mismatch. The farm's Deadline applies, so a recording crafted
// to stall the vetter is rejected rather than waited on.
func (f *Farm) Vet(rec *Recording) error {
	run := func() error {
		res, err := rec.Replay(nil, "")
		if err != nil {
			return fmt.Errorf("replay: vet: %w", err)
		}
		return diffClaim(rec, res)
	}
	if f.Deadline <= 0 {
		return run()
	}
	ch := make(chan error, 1)
	go func() { ch <- run() }()
	select {
	case err := <-ch:
		return err
	case <-time.After(f.Deadline):
		return fmt.Errorf("replay: vet: deadline exceeded")
	}
}

// diffClaim compares a reproduced run against the recording's claims.
func diffClaim(rec *Recording, res vm.RunResult) error {
	if res.Outcome != rec.Outcome {
		return fmt.Errorf("replay: vet: claimed outcome %v, reproduced %v", rec.Outcome, res.Outcome)
	}
	if res.ExitCode != rec.ExitCode {
		return fmt.Errorf("replay: vet: claimed exit code %d, reproduced %d", rec.ExitCode, res.ExitCode)
	}
	if res.Steps != rec.Steps {
		return fmt.Errorf("replay: vet: claimed %d steps, reproduced %d", rec.Steps, res.Steps)
	}
	switch {
	case rec.Failure == nil && res.Failure != nil:
		return fmt.Errorf("replay: vet: claimed clean run, reproduced failure at %#x", res.Failure.PC)
	case rec.Failure != nil && res.Failure == nil:
		return fmt.Errorf("replay: vet: claimed failure at %#x, reproduced none", rec.Failure.PC)
	case rec.Failure != nil:
		if res.Failure.PC != rec.Failure.PC {
			return fmt.Errorf("replay: vet: claimed failure at %#x, reproduced at %#x",
				rec.Failure.PC, res.Failure.PC)
		}
		if res.Failure.Monitor != rec.Failure.Monitor {
			return fmt.Errorf("replay: vet: claimed monitor %s, reproduced %s",
				rec.Failure.Monitor, res.Failure.Monitor)
		}
	}
	return nil
}
