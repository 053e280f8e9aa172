package community

import (
	"bytes"
	"fmt"

	"repro/internal/daikon"
	"repro/internal/image"
	"repro/internal/monitor"
	"repro/internal/replay"
	"repro/internal/vm"
)

// maxVetSteps bounds the step budget a community recording may claim.
// Community nodes seal recordings at exactly vm.DefaultMaxSteps, so any
// larger claim is not honest traffic — it is an attempt to make replays of
// the recording (the vetting pass, the abandoned goroutine a vet deadline
// leaves behind, and the manager's fast-path replays, which run under the
// manager lock) take arbitrarily long. Checked statically at both tiers,
// before any replay, which caps every single replay's work at one honest
// run's budget.
const maxVetSteps = vm.DefaultMaxSteps

// requireSender rejects messages with no sender identity. Every piece of
// community state — shards, assignments, quarantine — is keyed by node
// ID, so an anonymous message has no accountable place in the protocol:
// accepting one would let an attacker send tamperable input that no
// quarantine can ever stick to.
func requireSender(nodeID string) error {
	if nodeID == "" {
		return fmt.Errorf("community: message carries no sender ID")
	}
	return nil
}

// bindSender pins a connection to the first sender identity it claims:
// every later message on the same connection must claim the same ID, or
// the connection is dropped as a protocol violation. Identity on a fresh
// connection is still self-asserted — authenticating it is the transport's
// job (the management console's secure channel; see ARCHITECTURE.md's
// divergences) — but binding means a member that has spoken as itself can
// never switch to a peer's identity (to frame it with tampered traffic) or
// to an aggregator's (to exercise aggregator powers) on that connection.
func bindSender(bound *string, claimed string) error {
	if err := requireSender(claimed); err != nil {
		return err
	}
	if *bound == "" {
		*bound = claimed
	}
	if *bound != claimed {
		return fmt.Errorf("community: connection bound to sender %q got a message claiming %q", *bound, claimed)
	}
	return nil
}

// checkRecordingStatic returns the reason a recording is implausible
// without replaying it: its embedded image must be byte-identical to the
// protected binary (a recording is replayed against its OWN image, so a
// recording of some other program could "reproduce" any claim), its
// claimed failure must sit in the code range, and its step budget must be
// community-plausible.
func checkRecordingStatic(img *image.Image, imgWire []byte, rec *replay.Recording, pc uint32) string {
	if !bytes.Equal(rec.Image, imgWire) {
		return "recording image does not match the protected binary"
	}
	if !img.Contains(pc) {
		return fmt.Sprintf("recording claims failure outside the code range (%#x)", pc)
	}
	if rec.MaxSteps > maxVetSteps {
		return fmt.Sprintf("recording claims an implausible step budget (%d)", rec.MaxSteps)
	}
	return ""
}

// knownMonitors is the detector set a community member can legitimately
// claim in a failure report, derived from the monitor package's canonical
// list so a new detector can never be rejected here by omission. A report
// naming any other monitor is fabricated: no deployed detector produces
// it, so no replay could ever vet it, and accepting it would open an
// unvettable failure case.
var knownMonitors = func() map[string]bool {
	out := make(map[string]bool, len(monitor.DetectorNames))
	for _, name := range monitor.DetectorNames {
		out[name] = true
	}
	return out
}()

// checkReportStatic returns the reason a run report is implausible for the
// protected image, judged from the binary alone (no campaign state), or
// "". These are the checks an aggregator can apply at the edge; the
// manager layers observation-provenance checks on top.
func checkReportStatic(img *image.Image, rep *RunReport) string {
	if rep.Failure == nil {
		return ""
	}
	if !knownMonitors[rep.Failure.Monitor] {
		return fmt.Sprintf("failure claims unknown monitor %q", rep.Failure.Monitor)
	}
	if !img.Contains(rep.Failure.PC) {
		return fmt.Sprintf("failure PC %#x outside the code range", rep.Failure.PC)
	}
	for _, pc := range rep.Failure.Stack {
		if !img.Contains(pc) {
			return fmt.Sprintf("stack entry %#x outside the code range", pc)
		}
	}
	// Targets may legitimately point at data (heap writes), so only
	// control-transfer failures pin the target to the code range.
	if rep.Failure.Monitor == "ShadowStack" && rep.Failure.Target != 0 && !img.Contains(rep.Failure.Target) {
		return fmt.Sprintf("control transfer target %#x outside the code range", rep.Failure.Target)
	}
	return ""
}

// maxObsPerInvariant bounds the observations an honest run report carries
// for one (failure case, invariant): a node's check set folds each run's
// checks into [violated, last] or [last] (correlate.CheckSet), however
// many times the checked instruction ran.
const maxObsPerInvariant = 2

// checkObservationBound returns the reason a report carries more
// observations for one (failure case, invariant) than that folded stream
// can, or "". A flood of observations is not evidence an honest node could
// produce; it only makes the manager's classification work grow with the
// sender's whim.
func checkObservationBound(rep *RunReport) string {
	if len(rep.Observations) <= maxObsPerInvariant {
		return ""
	}
	type key struct{ failure, inv string }
	counts := make(map[key]int, len(rep.Observations))
	for i := range rep.Observations {
		o := &rep.Observations[i]
		k := key{o.FailureID, o.InvID}
		if counts[k]++; counts[k] > maxObsPerInvariant {
			return fmt.Sprintf("report carries more than %d observations for invariant %q in case %q",
				maxObsPerInvariant, o.InvID, o.FailureID)
		}
	}
	return ""
}

// checkLearnDBStatic returns the reason an uploaded invariant database is
// implausible, or "". Every invariant must describe instructions inside
// the protected image — §3.1 uploads carry invariants only, and an
// invariant at an address the binary does not contain can only poison the
// community database.
func checkLearnDBStatic(img *image.Image, db *daikon.DB) string {
	for _, inv := range db.All() {
		if !img.Contains(inv.Var.PC) {
			return fmt.Sprintf("uploaded invariant %s outside the code range", inv.ID())
		}
		if inv.NumVars() == 2 && !img.Contains(inv.Var2.PC) {
			return fmt.Sprintf("uploaded invariant %s outside the code range", inv.ID())
		}
	}
	for v := range db.VarsSeen {
		if !img.Contains(v.PC) {
			return fmt.Sprintf("uploaded variable %s outside the code range", v)
		}
	}
	return ""
}
